"""The three families of failure, one exit code each in the CLI.

- `InputError` (exit 2): the input is malformed, or outside what the
  library handles.  It is a ValueError, and the CLI reads any
  ValueError (a malformed number or JSON text, say) as one.
- `FalseVerdict` (exit 1): a mathematical "false" verdict.  The CLI's
  own false verdicts (`check` on a non-gentle algebra, `smooth` at a
  singular point, `verify` UNEQUAL) are return values, not exceptions.
- `InternalError` (exit 3): an internal bound exhausted, or two routes
  that must agree (an oracle pair, a theorem the computation relies on)
  disagreeing.  The CLI reads a failed `assert` as one too.
"""


class InputError(ValueError):
    pass


class FalseVerdict(Exception):
    pass


class InternalError(RuntimeError):
    pass
