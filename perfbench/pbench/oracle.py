"""Output checks: every response is compared with an in-process result.

These functions take plain values (response payloads, SAM text, expected
tuples) so they can be tested without running a server.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Sequence

from repro.core.cigar import Cigar

#: SAM FLAG bits the placement check reads.
FLAG_UNMAPPED = 0x4
FLAG_REVERSE = 0x10


class ReadTruth(NamedTuple):
    """Where a simulated read came from (0-based forward-strand start)."""

    start: int
    reverse: bool


def align_response_ok(
    response: Any, expected: tuple[str, int, int, int], text: str, pattern: str
) -> bool:
    """A ``/v1/align`` response equals the in-process alignment and is valid.

    ``expected`` is ``(cigar, edit_distance, text_start, text_consumed)``
    from ``GenAsmAligner.align``; validity is ``Cigar.is_valid_for`` on the
    aligned part of the text.
    """
    if not isinstance(response, dict):
        return False
    got = (
        response.get("cigar"),
        response.get("edit_distance"),
        response.get("text_start"),
        response.get("text_consumed"),
    )
    if got != expected:
        return False
    try:
        cigar = Cigar.from_string(got[0])
    except ValueError:
        return False
    return cigar.is_valid_for(text[got[2] :], pattern)


def placed_on_origin(line: str, truth: ReadTruth, tolerance: int) -> bool:
    """The SAM record maps the read on its simulated strand near its origin."""
    fields = line.split("\t")
    if len(fields) < 4:
        return False
    flag = int(fields[1])
    if flag & FLAG_UNMAPPED:
        return False
    if bool(flag & FLAG_REVERSE) != truth.reverse:
        return False
    return abs(int(fields[3]) - 1 - truth.start) <= tolerance


def check_map_job(
    sam_text: str,
    header: str,
    oracle_lines: Sequence[str],
    truths: Sequence[ReadTruth],
    tolerance: int,
) -> tuple[bool, list[bool]]:
    """Check one map job's SAM output against the in-process mapper.

    Returns ``(identical, placed)``: whether the whole SAM text equals the
    oracle's header plus records, and per read whether its record equals
    the oracle's *and* places the read on its origin. A read whose record
    differs from the oracle is never counted as placed.
    """
    lines = sam_text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    got_header = "".join(line + "\n" for line in lines if line.startswith("@"))
    records = [line for line in lines if not line.startswith("@")]
    header_ok = got_header == header
    placed: list[bool] = []
    identical = header_ok and len(records) == len(oracle_lines)
    for i, (expected, truth) in enumerate(zip(oracle_lines, truths)):
        got = records[i] if i < len(records) else None
        same = header_ok and got == expected
        identical = identical and same
        placed.append(same and placed_on_origin(got, truth, tolerance))
    return identical, placed
