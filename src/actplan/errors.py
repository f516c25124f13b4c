"""Exception types shared by the planner, oracle and I/O layers."""


class ActplanError(Exception):
    """Base class for all errors raised by this package."""


class InvalidLayerError(ActplanError):
    """A layer description violates a structural invariant."""


class ChainMismatchError(ActplanError):
    """Consecutive layers in a network do not chain (out dims != next in dims).

    ``layer_index`` is the 0-based index of the layer whose input does not
    match its predecessor's output.
    """

    def __init__(self, message, layer_index):
        self.layer_index = layer_index
        super().__init__(message)


class SizeLimitError(ActplanError):
    """A layer or network is above a bound of the oracle or the executors."""


class DimensionMismatchError(ActplanError):
    """An input tensor, weight set or plan does not match the layer geometry."""


class NetworkFileError(ActplanError):
    """A network file failed to parse or validate.

    ``location`` is a human-readable position such as ``"line 7"`` or
    ``"layers[2].c_in"`` when one is known.
    """

    def __init__(self, message, location=None):
        self.location = location
        if location:
            message = f"{location}: {message}"
        super().__init__(message)


class ClobberError(ActplanError):
    """Checked in-arena execution, or ``check_plan``'s replay, wrote over a
    word that was still live.

    Carries the layer index, the output block whose write collided, the
    absolute arena address, the window that wrote it and the last window
    due to read the victim word, so the first violating write can be
    pinpointed and its earliness measured in windows.
    """

    def __init__(self, layer_index, block, address, window, last_reader):
        self.layer_index = layer_index
        self.block = block
        self.address = address
        self.window = window
        self.last_reader = last_reader
        super().__init__(
            f"live data clobbered: layer {layer_index + 1}, output block {block}, "
            f"arena address {address}; window {window} wrote it "
            f"{last_reader - window} windows before its last reader, window {last_reader}")
