"""``python -m mahlerq``: run the CLI, then leave without interpreter teardown.

Once the output is flushed nothing is left to do, so the process ends in
``os._exit`` and skips the teardown of every loaded module.  If a flush
fails (a closed pipe, say), ``sys.exit`` ends it as a normal exit would,
which reports the failure the same way.
"""

import os
import sys

from .cli import main

if __name__ == "__main__":
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except (OSError, ValueError):  # a broken pipe, a closed stream
        sys.exit(code)
    os._exit(code)
