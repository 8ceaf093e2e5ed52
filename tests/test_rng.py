import hashlib

import numpy as np

from framelab import SplitMix64


def _draw_script_digest(seed):
    """SHA-256 of a fixed mix of bulk and scalar draws, including the
    generator's state and cached Box-Muller spare after every step."""
    rng = SplitMix64(seed)
    h = hashlib.sha256()

    def feed(a):
        a = np.asarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
        h.update(f"{rng.state}:{rng._spare!r};".encode())

    for shape in (0, 1, 2, 3, 7, 30, (4, 4)):
        feed(rng.gaussians(shape))
        feed(rng.gaussian())
        feed(rng.complex_gaussians(shape))
        feed(np.uint64(rng.u64()))
        feed(rng.complex_gaussians(shape))
        feed(rng.uniform())
        feed(rng.gaussians(shape))
    return h.hexdigest()


def test_draw_script_golden():
    # Any change to the stream, the Box-Muller transform or the spare
    # rule shows here.
    assert _draw_script_digest(7) == (
        "971c03b7cd802b4c951df407bf36d40316fb1e9ffebf7c74c9159f9807913de8")

