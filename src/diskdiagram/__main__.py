"""Run the command-line interface as `python -m diskdiagram`."""
import sys

from diskdiagram.cli import main

if __name__ == "__main__":
    sys.exit(main())
