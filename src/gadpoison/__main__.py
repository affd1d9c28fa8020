"""``python -m gadpoison`` and the ``gadpoison`` script: run ``gadpoison.cli``
as a program, so that each subcommand imports only the modules it runs
(imported as a module, ``gadpoison.cli`` loads them all)."""

import runpy


def main() -> None:
    runpy.run_module("gadpoison.cli", run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()
