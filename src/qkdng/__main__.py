"""``python -m qkdng``: the ``qkdng`` command, runnable without installing."""

from .cli import run

if __name__ == "__main__":
    run()
