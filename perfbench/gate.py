"""Correctness gate for one sweep CSV, and its tampering self-test.

The gate is independent of the program's own statistics code: it
re-derives every interval it needs from the CSV cells and the trial
count.  A sweep passes when

* the header equals the program's ``CSV_HEADER`` and there is one row per
  (sweep point, user) with the expected point and user in each row;
* in outage mode every probability cell (exact, floor, Monte Carlo and
  its interval) lies in [0, 1]; the high-SNR asymptote is not a
  probability (it exceeds 1 at low SNR) and is not checked;
* each ``outage_exact`` lies inside the exact (Clopper-Pearson) binomial
  interval at the two-sided level of a z=5 normal test, rebuilt from
  ``outage_mc`` and the trial count.  Zero-event cells at high SNR get a
  proper interval this way, which a sigma test would not give them.  A
  Wilson interval is not used: it under-covers at one or two events, and
  a single event at p=1.6e-7 in 1e5 trials (fig1 at 20 dB, a 1.6% event)
  falls outside its z=5 bounds;
* each ``throughput_exact`` lies within 5 normal sigma of
  ``throughput_mc``, sigma taken from the CSV's own 95% interval;
* its bytes equal those of an earlier repetition with the same seed.
"""

from __future__ import annotations

Z_GATE = 5.0
Z_CSV = 1.96  # the program's default interval width in the CSV
PROBABILITY_COLUMNS = ("outage_exact", "outage_asym2", "outage_mc",
                       "mc_ci_low", "mc_ci_high")
ROUNDING = 1e-9  # relative slack for the 12-significant-digit CSV cells


def exact_interval(successes: int, trials: int, z: float) -> tuple[float, float]:
    """Clopper-Pearson interval with the coverage of a two-sided z test."""
    # imported here, after the samples ran: a worker's ru_maxrss starts
    # from the size of the process that launched it
    from scipy.stats import beta, norm

    alpha = 2 * norm.sf(z)
    low = beta.ppf(alpha / 2, successes, trials - successes + 1) if successes else 0.0
    high = (beta.ppf(1 - alpha / 2, successes + 1, trials - successes)
            if successes < trials else 1.0)
    return float(low), float(high)


def _cell(row: dict, key: str) -> float | None:
    text = row[key]
    return None if text == "" else float(text)


def check_csv(text: str, header: str, points: list[float], num_users: int,
              mode: str, trials: int) -> list[str]:
    """Return the problems found in one sweep CSV (empty when it passes)."""
    lines = text.split("\n")
    if lines[-1] != "":
        return ["file does not end with a newline"]
    lines = lines[:-1]
    if not lines or lines[0] != header:
        return [f"header {lines[0] if lines else ''!r} != {header!r}"]
    columns = header.split(",")
    expected = [(p, u) for p in points for u in range(1, num_users + 1)]
    if len(lines) - 1 != len(expected):
        return [f"{len(lines) - 1} rows, expected {len(expected)} "
                f"({len(points)} points x {num_users} users)"]
    problems = []
    for number, (line, (point, user)) in enumerate(zip(lines[1:], expected), 2):
        cells = line.split(",")
        if len(cells) != len(columns):
            problems.append(f"line {number}: {len(cells)} cells")
            continue
        try:
            row = dict(zip(columns, cells))
            got_point, got_user = float(row["sweep_db"]), int(row["user"])
            values = {key: _cell(row, key) for key in columns[2:]}
        except ValueError as exc:
            problems.append(f"line {number}: {exc}")
            continue
        if abs(got_point - point) > 1e-9 or got_user != user:
            problems.append(f"line {number}: point/user {got_point}/{got_user}, "
                            f"expected {point}/{user}")
        if mode == "outage":
            problems += _check_outage(number, values, trials)
        else:
            problems += _check_throughput(number, values)
    return problems


def _check_outage(number: int, values: dict, trials: int) -> list[str]:
    exact, mc = values["outage_exact"], values["outage_mc"]
    if exact is None or mc is None:
        return [f"line {number}: outage_exact or outage_mc is empty"]
    outside = [f"line {number}: {key}={values[key]!r} outside [0, 1]"
               for key in PROBABILITY_COLUMNS
               if values[key] is not None and not 0.0 <= values[key] <= 1.0]
    if outside:
        return outside
    low, high = exact_interval(round(mc * trials), trials, Z_GATE)
    if not low * (1 - ROUNDING) <= exact <= high * (1 + ROUNDING):
        return [f"line {number}: outage_exact={exact!r} outside the z=5 "
                f"exact interval [{low!r}, {high!r}] of outage_mc={mc!r}"]
    return []


def _check_throughput(number: int, values: dict) -> list[str]:
    exact, mc, high = (values["throughput_exact"], values["throughput_mc"],
                       values["mc_ci_high"])
    if exact is None or mc is None or high is None:
        return [f"line {number}: throughput_exact, throughput_mc or "
                f"mc_ci_high is empty"]
    sigma = (high - mc) / Z_CSV  # the upper bound is never clamped
    if not sigma > 0 or abs(exact - mc) > Z_GATE * sigma:
        return [f"line {number}: throughput_exact={exact!r} not within 5 "
                f"sigma (sigma={sigma!r}) of throughput_mc={mc!r}"]
    return []


def check_repeat(first: bytes, later: bytes) -> list[str]:
    """Same seed, same bytes: the program promises byte-identical output."""
    if first == later:
        return []
    at = next((i for i, (a, b) in enumerate(zip(first, later)) if a != b),
              min(len(first), len(later)))
    return [f"bytes differ from the first repetition at offset {at}"]


# ---------------------------------------------------------------------------
# self-test: the gate must be able to fail
# ---------------------------------------------------------------------------

def _move_mc_cell(text: str, mode: str) -> str:
    lines = text.split("\n")
    columns = lines[0].split(",")
    cells = lines[1].split(",")
    if mode == "outage":
        exact = float(cells[columns.index("outage_exact")])
        cells[columns.index("outage_mc")] = "1" if exact < 0.5 else "0"
    else:
        for key in ("throughput_mc", "mc_ci_low", "mc_ci_high"):
            index = columns.index(key)
            cells[index] = repr(float(cells[index]) + 1.0)
    lines[1] = ",".join(cells)
    return "\n".join(lines)


def _drop_row(text: str) -> str:
    lines = text.split("\n")
    return "\n".join(lines[:1] + lines[2:])


def _rename_column(text: str) -> str:
    head, _, rest = text.partition("\n")
    return head.replace("outage_exact", "outage_exakt", 1) + "\n" + rest


def _flip_byte(text: str) -> str:
    head, _, rest = text.partition("\n")
    digit = next(i for i, ch in enumerate(rest) if ch.isdigit())
    swapped = "1" if rest[digit] != "1" else "2"
    return head + "\n" + rest[:digit] + swapped + rest[digit + 1:]


def selftest(text: str, header: str, points: list[float], num_users: int,
             mode: str, trials: int) -> dict[str, bool]:
    """Feed the gate tampered copies of a passing CSV.

    Returns, for the untampered CSV and each tampering, whether the gate
    judged it as expected: the original passes, every tampering fails.
    """
    def fails(candidate: str) -> bool:
        return bool(check_csv(candidate, header, points, num_users, mode, trials))

    return {
        "untampered_passes": not fails(text),
        "mc_cell_moved": fails(_move_mc_cell(text, mode)),
        "row_dropped": fails(_drop_row(text)),
        "column_renamed": fails(_rename_column(text)),
        "byte_changed_between_repetitions": bool(check_repeat(
            text.encode(), _flip_byte(text).encode())),
    }
