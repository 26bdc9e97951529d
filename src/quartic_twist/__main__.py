import gc
import sys

# The process ends when `main` returns, and nothing it builds is a cycle
# worth freeing before then: collecting during the imports and the report
# would only scan live objects.
gc.disable()

from .cli import main  # noqa: E402

sys.exit(main())
