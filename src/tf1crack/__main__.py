"""``python -m tf1crack``: the same command line as the ``tf1crack`` script."""

from .cli import main

if __name__ == "__main__":
    main()
