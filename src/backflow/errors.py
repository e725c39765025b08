class NanGuardError(RuntimeError):
    """A loss, gradient, or parameter update stopped being finite.

    The message names what stopped being finite; the caller retries the
    surrounding micro-experiment at a halved learning rate and records the
    message if that fails too.
    """


class ConfigError(ValueError):
    """A run configuration failed validation; the message names the field."""
