"""`python -m fracsim`: the same command line as the `fracsim` entry point."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
