"""Exception types shared across the simulator."""


class ConfigError(ValueError):
    """Invalid configuration. `field` names the offending entry."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message
