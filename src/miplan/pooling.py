"""Rubin's rules: combine per-imputation analyses into one pooled estimate.

Each completed dataset yields a point estimate and its squared standard
error.  Pooling averages the estimates, splits the variance into within-
and between-imputation parts, and derives the fraction of missing
information and the degrees of freedom of the variance estimate.
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .fmi import GAMMA_EPS, GammaInterval, check_level, gamma_ci
from .quantiles import t_quantile

RESULTS_CSV_HEADER = ("imputation", "estimate", "variance")


@dataclass(frozen=True)
class ImputationResult:
    """One analysis of one completed dataset.

    ``estimate`` is the point estimate; ``within_variance`` is its squared
    standard error, both computed as though the dataset were complete.
    """

    estimate: float
    within_variance: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.estimate):
            raise ValueError(f"invalid input: estimate must be finite, got {self.estimate!r}")
        if not math.isfinite(self.within_variance) or self.within_variance < 0.0:
            raise ValueError(
                "invalid input: within_variance must be finite and >= 0, "
                f"got {self.within_variance!r}"
            )


class ImputationResults(Sequence):
    """Per-imputation results held as two columns, as read_results_csv
    returns the rows of a results CSV in index order.

    ``estimates`` and ``withins`` are read-only float64 copies of the
    columns, checked as every ImputationResult is.  Indexing and iterating
    give ImputationResults, so the rows read as a list of them.
    """

    __slots__ = ("estimates", "withins")

    def __init__(self, estimates, withins) -> None:
        self._hold(np.array(estimates, dtype=np.float64), np.array(withins, dtype=np.float64))

    def _hold(self, estimates: np.ndarray, withins: np.ndarray, checked: bool = False) -> None:
        """Keep two float64 columns, read-only, without a copy: after checking
        them, unless the caller has already checked the same values."""
        if not checked and not (
                estimates.ndim == 1 and estimates.shape == withins.shape
                and np.isfinite(estimates).all() and np.isfinite(withins).all()
                and (withins >= 0.0).all()):
            raise ValueError("invalid input: need two 1-d columns of equal length: finite "
                             "estimates, and within variances finite and >= 0")
        estimates.flags.writeable = withins.flags.writeable = False
        self.estimates = estimates
        self.withins = withins

    def __len__(self) -> int:
        return len(self.estimates)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return ImputationResults(self.estimates[i], self.withins[i])
        return ImputationResult(float(self.estimates[i]), float(self.withins[i]))


@dataclass(frozen=True)
class PooledAnalysis:
    """Pooled output across m imputations.

    v_total = w_bar + (1 + 1/m) * b; se = sqrt(v_total).
    gamma_hat = (1 + 1/m) * b / v_total, clamped into [eps, 1-eps];
    gamma_raw keeps the unclamped value for diagnostics.
    df_hat = (m - 1) / gamma_hat**2 is the large-sample df of v_total.
    """

    m: int
    theta: float
    w_bar: float
    b: float
    v_total: float
    se: float
    gamma_hat: float
    gamma_raw: float
    df_hat: float
    gamma_interval: GammaInterval
    theta_interval: tuple[float, float]
    level: float


def pool(
    results: ImputationResults | Iterable[ImputationResult | Sequence[float]],
    level: float = 0.95,
) -> PooledAnalysis:
    """Pool per-imputation results with Rubin's rules.

    Parameters
    ----------
    results : ImputationResults, or an iterable of ImputationResult or of
        (estimate, variance) pairs
        One entry per imputation; at least two are required.  The columns
        of an ImputationResults were checked when it was read; any other
        entry is first checked as an ImputationResult.
    level : float
        Confidence level for both the gamma interval and the interval
        for the pooled estimate.

    Returns
    -------
    PooledAnalysis

    The rows come from a user, in whatever order the user wrote them, so
    they are put in one canonical order, by estimate and then by within
    variance, before ``pool_arrays`` sums them: the result is bit-identical
    under any permutation of the rows.
    """
    if isinstance(results, ImputationResults):
        estimates, withins = results.estimates, results.withins
    else:
        items = [r if isinstance(r, ImputationResult) else ImputationResult(*r) for r in results]
        estimates = np.array([r.estimate for r in items], dtype=np.float64)
        withins = np.array([r.within_variance for r in items], dtype=np.float64)
    order = np.lexsort((withins, estimates))
    return pool_arrays(estimates[order], withins[order], level)


@dataclass(frozen=True, eq=False)
class PooledReplicates:
    """Rubin's rules over many poolings of m imputations each, by column.

    Entry i of every array is pooling i's field of PooledAnalysis.  Only
    the fields a measurement or a plan reads are kept: w_bar, b, gamma_raw
    and the intervals are left out.  ``pool_segments``, whose poolings
    differ in size, gives m as an array too.  Each pooling sums its
    imputations in the order they were drawn.
    """

    m: int
    theta: np.ndarray
    v_total: np.ndarray
    se: np.ndarray
    gamma_hat: np.ndarray
    df_hat: np.ndarray


def pool_rows(estimates: np.ndarray, withins: np.ndarray) -> PooledReplicates:
    """Rubin's rules along the last axis of a 2-d block: one pooling per row
    of m imputations.

    Each row is summed in the order given.  Only ``pool``, whose rows a user
    writes in any order, sorts them first; a simulated row's order is
    already fixed by the stream that drew it, so a canonical order buys
    nothing there.  A row of a block whose rows lie contiguous along the
    last axis (C order, or a slice of its leading columns) pools bit for
    bit as ``pool_arrays`` pools that row alone.

    The callers vouch for the entries (finite estimates, finite variances
    >= 0): ``pool`` checks them, and the Monte Carlo engine draws them.
    An overflowing or non-positive pooled variance is still rejected; among
    many rows, the first bad row raises what pooling it alone would.
    """
    m = estimates.shape[-1]
    _check_m(m)
    # Finite inputs near the float64 limit can overflow; _rubin reports that.
    with np.errstate(over="ignore", invalid="ignore"):
        theta, ssd = _mean_ssd(estimates)
        w_bar = np.add.reduce(withins, axis=-1) / m
    return PooledReplicates(m, *_rubin(m, theta, w_bar, ssd))


def _mean_ssd(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mean of each row of a 2-d block and the sum of its squared
    deviations from that mean: np.mean, and the sum that np.var(ddof=1)
    divides by n - 1, as numpy computes them, sharing one sum.  A row's sums
    run along it as a lone row's do.  No errstate is set here: each caller
    holds its own."""
    mean = np.add.reduce(block, axis=-1) / block.shape[-1]
    dev = block - mean[..., None]
    return mean, np.add.reduce(dev * dev, axis=-1)


def pool_segments(estimates: np.ndarray, withins: np.ndarray, ms: np.ndarray) -> PooledReplicates:
    """Rubin's rules over consecutive segments of one 1-d run of imputations:
    pooling i takes the next ms[i] entries, and ``m`` is the array ms.

    Pooling i is, bit for bit, ``pool_arrays`` of its segment alone: each
    of its three sums is one ``np.add.reduce`` of a contiguous slice, as
    there.
    (``np.add.reduceat`` would take all of them at once, but it sums each
    segment in sequence, not pairwise, so it rounds differently.)  The
    entries are vouched for as in ``pool_rows``, and the first unusable
    segment raises what pooling it alone would.
    """
    ms = np.asarray(ms, dtype=np.int64)
    _check_m(int(ms.min()))
    ends = np.cumsum(ms).tolist()
    bounds = list(zip([0, *ends[:-1]], ends))
    ew = np.stack((estimates, withins))
    with np.errstate(over="ignore", invalid="ignore"):
        sums = np.array([np.add.reduce(ew[:, s:e], axis=1) for s, e in bounds]).T
        theta, w_bar = sums / ms
        dev = estimates - np.repeat(theta, ms)
        dev *= dev
        ssd = np.array([np.add.reduce(dev[s:e]) for s, e in bounds])
    return PooledReplicates(ms, *_rubin(ms, theta, w_bar, ssd))


def _rubin(m, theta: np.ndarray, w_bar: np.ndarray, ssd: np.ndarray) -> tuple[np.ndarray, ...]:
    """Rubin's rules after the sums, for poolings of m imputations (one int,
    or an array with each pooling's m): theta, v_total, se, gamma_hat and
    df_hat, from each pooling's mean estimate, mean within variance and sum
    of squared deviations ssd.  Among many poolings, the first with an
    unusable total variance raises what pooling it alone would."""
    with np.errstate(over="ignore", invalid="ignore"):
        b = ssd / (m - 1)
        v_total = w_bar + (1.0 + 1.0 / m) * b
    usable = np.isfinite(theta) & np.isfinite(v_total) & (v_total > 0.0)
    if not usable.all():
        i = np.argmin(usable, axis=None)
        _reject(float(np.ravel(theta)[i]), float(np.ravel(v_total)[i]))

    gamma_raw = (1.0 + 1.0 / m) * b / v_total
    # clamp_gamma's clamp; with withins >= 0, gamma_raw is already in [0, 1]
    gamma_hat = np.minimum(np.maximum(gamma_raw, GAMMA_EPS), 1.0 - GAMMA_EPS)
    return theta, v_total, np.sqrt(v_total), gamma_hat, (m - 1) / (gamma_hat * gamma_hat)


def _check_m(m: int) -> None:
    if m < 2:
        raise ValueError(f"insufficient imputations: need at least 2, got {m}")


def _reject(theta: float, v_total: float) -> None:
    """Raise, for a pooling with this estimate and total variance, the error
    that makes it unusable, if any."""
    if not (math.isfinite(theta) and math.isfinite(v_total)):
        raise ValueError("invalid input: pooled estimate or variance overflows float64")
    if not v_total > 0.0:
        raise ValueError("invalid input: pooled variance must be positive")


def pool_arrays(estimates: np.ndarray, withins: np.ndarray, level: float = 0.95) -> PooledAnalysis:
    """Rubin's rules over the m estimates and within variances of one
    pooling, with its gamma and theta intervals at level: the bits of
    ``pool_rows`` of that one row.

    The arithmetic after numpy's sums is done in Python floats: the same
    IEEE operations as ``pool_rows``' block, so the same bits, without
    numpy's cost per scalar, which dominates at pilot sizes.
    """
    check_level(level)
    m = len(estimates)
    _check_m(m)
    with np.errstate(over="ignore", invalid="ignore"):
        theta = float(np.add.reduce(estimates)) / m
        dev = estimates - theta
        b = float(np.add.reduce(dev * dev)) / (m - 1)
        w_bar = float(np.add.reduce(withins)) / m
    v_total = w_bar + (1.0 + 1.0 / m) * b
    _reject(theta, v_total)
    gamma_raw = (1.0 + 1.0 / m) * b / v_total
    gamma_hat = min(max(gamma_raw, GAMMA_EPS), 1.0 - GAMMA_EPS)
    se = math.sqrt(v_total)
    df_hat = (m - 1) / (gamma_hat * gamma_hat)
    interval = gamma_ci(gamma_hat, m, level)
    half = t_quantile(0.5 * (1.0 + level), df_hat) * se
    return PooledAnalysis(
        m=m,
        theta=theta,
        w_bar=w_bar,
        b=b,
        v_total=v_total,
        se=se,
        gamma_hat=gamma_hat,
        gamma_raw=gamma_raw,
        df_hat=df_hat,
        gamma_interval=interval,
        theta_interval=(theta - half, theta + half),
        level=level,
    )


def read_results_csv(path: str) -> ImputationResults:
    """Read per-imputation results from CSV.

    The header must be ``imputation,estimate,variance``, after an optional
    UTF-8 byte-order mark; whitespace around each name is ignored, and extra
    columns are rejected.  Blank lines are skipped.  Rows may appear in any
    order; the indices must be 1..m, each once: a duplicate or a gap is an
    error.  Returns the results ordered by index.

    Any file that csv.reader reads (quoted fields, CRLF or CR line ends)
    reads as before.  A file with no double quote, no carriage return and
    no NUL, no longer than ``csv.field_size_limit()``, is one in which
    csv.reader splits each line at its commas and nowhere else, so it is
    split with ``str.split``; the result, and every error message, is the
    same either way.  The file is read once, so a pipe reads as a file does.

    Either way the columns are checked once, on the parsed values: the index
    column is ordered by one argsort, and the estimates and variances are
    checked as Python floats before they become arrays.  Only when a check
    fails are the rows checked one at a time, to report the first bad one
    with its line number.  Which files take which tokenizer, the values read
    and every error message are as before.
    """
    with open(path, "rb", buffering=0) as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError:
        text = None  # csv.reader below reports it as a read of the file does
    # Without a quote, a CR or a NUL (which it rejects before Python 3.11),
    # csv.reader's default dialect splits each line at its commas and nowhere
    # else, and no field of a text within its size limit can pass that limit.
    split = not (text is None or '"' in text or "\r" in text or "\0" in text
                 or len(text) > csv.field_size_limit())
    if split:
        # csv.reader gives no row after the last line end.
        lines = text.removesuffix("\n").split("\n") if text else []
    else:
        # The bytes decoded a chunk at a time, as a text file reads them, so
        # that a decode error names the position a read of the file names.
        fh = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="")
        try:
            lines = list(csv.reader(fh))
        except (csv.Error, UnicodeDecodeError) as exc:
            raise ValueError(f"invalid input: {path}: {exc}") from None
    if not lines:
        raise ValueError(f"invalid input: {path}: empty file")
    header = lines[0].split(",") if split else lines[0]
    if tuple(h.strip() for h in header) != RESULTS_CSV_HEADER:
        raise ValueError(
            f"invalid input: {path}: header must be "
            f"{','.join(RESULTS_CSV_HEADER)!r}, got {','.join(header)!r}"
        )
    rows = ([line.split(",") for line in lines[1:] if line] if split
            else [row for row in lines[1:] if row])
    try:
        indices, estimates, withins = zip(*rows, strict=True) if rows else ((), (), ())
        # int() takes indices past int64, which numpy refuses with OverflowError.
        index = np.array(list(map(int, indices)), dtype=np.int64)
        order = index.argsort()
        if not (index[order] == np.arange(1, len(index) + 1)).all():
            raise ValueError
        estimates = list(map(float, estimates))
        withins = list(map(float, withins))
        # A NaN or an infinity makes its column's sum non-finite.  A sum of
        # finite values can overflow too; then _hold's own check decides.
        checked = (math.isfinite(sum(estimates)) and math.isfinite(sum(withins))
                   and min(withins, default=0.0) >= 0.0)
        results = ImputationResults.__new__(ImputationResults)
        results._hold(np.array(estimates)[order], np.array(withins)[order], checked)
        return results
    except (ValueError, OverflowError):
        pass
    # Only now are the numbered lines needed: split them, blank ones empty.
    _check_rows(path, [line.split(",") if line else [] for line in lines] if split else lines)
    raise AssertionError("a column check failed where no row check does")


def _check_rows(path: str, lines: list[list[str]]) -> None:
    """Check a results CSV's rows one at a time and raise the error of the
    first bad one: the wording of every row error read_results_csv gives."""
    seen: set[int] = set()
    for lineno, row in enumerate(lines[1:], start=2):
        if not row:
            continue
        if len(row) != 3:
            raise ValueError(f"invalid input: {path}:{lineno}: expected 3 columns")
        try:
            index = int(row[0])
            ImputationResult(float(row[1]), float(row[2]))
        except ValueError as exc:
            message = str(exc).removeprefix("invalid input: ")
            raise ValueError(f"invalid input: {path}:{lineno}: {message}") from None
        if index < 1:
            raise ValueError(
                f"invalid input: {path}:{lineno}: imputation index must be >= 1"
            )
        if index in seen:
            raise ValueError(
                f"invalid input: {path}:{lineno}: duplicate imputation index {index}"
            )
        seen.add(index)
    # The indices are unique and >= 1, so they are 1..m exactly when the largest is m.
    if seen and max(seen) != len(seen):
        missing = next(i for i in range(1, len(seen) + 1) if i not in seen)
        raise ValueError(f"invalid input: {path}: missing imputation index {missing}")
