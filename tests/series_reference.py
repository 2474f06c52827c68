"""Test-only helper for polyloop.series: the geometric series, which the
package itself never builds. Tests use it as a closed form to check Koszul
series against. It is kept here unchanged from the package.
"""

from polyloop.errors import InvalidParameters
from polyloop.series import TruncSeries, _invert


def geometric(n: int, ratio_degree: int = 1, ratio: int = 1) -> TruncSeries:
    """1 / (1 - ratio * t**ratio_degree) to order n."""
    if ratio_degree < 1:
        raise InvalidParameters("ratio degree must be positive")
    den = [1] + [0] * (ratio_degree - 1) + [-ratio]
    return TruncSeries(n, tuple(_invert(den, n)))
