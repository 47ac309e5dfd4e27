"""`python -m dpselect` runs the command-line front end."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
