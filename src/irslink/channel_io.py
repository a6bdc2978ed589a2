"""Plain-text import/export of channel realizations.

File layout (whitespace separated, ``#`` comments and blank lines are
ignored):

    channelset v1
    M N
    M lines of 2N floats   (h_r rows, interleaved "re im" pairs)
    N lines of 2 floats    (h_v entries)
    M lines of 2 floats    (h_d entries)

Floats are written with 17 significant digits, which round-trips IEEE
binary64 exactly.
"""

from __future__ import annotations

import contextlib
import math
import os
import tempfile

import numpy as np

from .channel import ChannelSet

FORMAT_TAG = "channelset"
FORMAT_VERSION = "v1"


class ChannelFileError(ValueError):
    """Malformed channel file; message carries the offending line."""


def save_channels(channels: ChannelSet, path: str) -> None:
    """Write a ChannelSet atomically (temp file + rename)."""
    lines = [f"{FORMAT_TAG} {FORMAT_VERSION}",
             f"{channels.num_bs_antennas} {channels.num_irs_elements}"]

    def fmt_row(row: np.ndarray) -> str:
        parts = []
        for z in row:
            parts.append("%.17g %.17g" % (z.real, z.imag))
        return " ".join(parts)

    for row in channels.h_r:
        lines.append(fmt_row(row))
    for z in channels.h_v:
        lines.append("%.17g %.17g" % (z.real, z.imag))
    for z in channels.h_d:
        lines.append("%.17g %.17g" % (z.real, z.imag))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_channels(path: str) -> ChannelSet:
    """Read a ChannelSet, validating dimensions and finiteness.

    The numbers are converted a block at a time (the M h_r lines, then
    the N + M pair lines). A block that does not convert is parsed line by
    line, so an error names the first bad line in file order.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.readlines()

    content = []
    for lineno, text in enumerate(raw, start=1):
        stripped = text.strip()
        if not stripped or stripped.startswith("#"):
            continue
        content.append((lineno, stripped))

    if not content:
        raise ChannelFileError("line 1: empty channel file")

    lineno, header = content[0]
    fields = header.split()
    if fields[:1] != [FORMAT_TAG] or len(fields) != 2:
        raise ChannelFileError(f"line {lineno}: expected '{FORMAT_TAG} <version>' "
                               f"header, got {header!r}")
    if fields[1] != FORMAT_VERSION:
        raise ChannelFileError(f"line {lineno}: unsupported format version "
                               f"{fields[1]!r}")

    if len(content) < 2:
        raise ChannelFileError(f"line {lineno}: missing dimension line")
    lineno, dims = content[1]
    parts = dims.split()
    if len(parts) != 2 or not all(p.isdigit() for p in parts):
        raise ChannelFileError(f"line {lineno}: expected 'M N', got {dims!r}")
    m, n = int(parts[0]), int(parts[1])
    if m < 1 or n < 1:
        raise ChannelFileError(f"line {lineno}: dimensions must be positive")

    body = content[2:]
    expected = m + n + m
    if len(body) != expected:
        raise ChannelFileError(
            f"line {content[-1][0]}: expected {expected} data lines for "
            f"M={m}, N={n}, found {len(body)}")

    try:
        vals = np.concatenate([_convert_block(body[:m], 2 * n),
                               _convert_block(body[m:], 2)])
    except ValueError:
        vals = _convert_lines(body, m, n)
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        first = int(bad[0])
        row = first // (2 * n) if first < 2 * m * n else m + (first - 2 * m * n) // 2
        raise ChannelFileError(f"line {body[row][0]}: non-finite entry")

    z = vals[0::2] + 1j * vals[1::2]
    return ChannelSet(h_r=z[:m * n].reshape(m, n), h_v=z[m * n:m * n + n],
                      h_d=z[m * n + n:])


def _convert_block(lines: list, width: int) -> np.ndarray:
    """Floats of data lines of ``width`` tokens each, in one pass.

    numpy's text reader splits lines as ``str.split()`` does and converts
    tokens with the string-to-double routine ``float()`` uses. It raises
    ValueError on rows of unequal width and on some tokens ``float()``
    takes (underscores, non-ASCII digits), and the reshape raises it on
    a wrong width; the caller then parses line by line.
    """
    return np.loadtxt([text for _, text in lines], comments=None,
                      ndmin=2).reshape(len(lines) * width)


def _convert_lines(lines: list, m: int, n: int) -> np.ndarray:
    """Floats of the data lines, one line at a time, raising at the first
    bad line: a wrong token count, a token ``float()`` refuses, or a
    non-finite entry."""
    vals = []
    for i, (lineno, text) in enumerate(lines):
        tokens = text.split()
        width = 2 * n if i < m else 2
        if len(tokens) != width:
            raise ChannelFileError(f"line {lineno}: expected {width} floats, "
                                   f"found {len(tokens)}")
        try:
            row = [float(tok) for tok in tokens]
        except ValueError as exc:
            raise ChannelFileError(f"line {lineno}: {exc}") from None
        if not all(map(math.isfinite, row)):
            raise ChannelFileError(f"line {lineno}: non-finite entry")
        vals += row
    return np.array(vals, dtype=np.float64)


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path via a temp file and a rename.

    The file gets the mode a plain ``open(path, "w")`` would create it
    with, not mkstemp's owner-only 0600. An OSError names ``path``, not
    the temp file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".txt")
        umask = os.umask(0)  # the umask can only be read by setting it
        os.umask(umask)
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            os.fchmod(fd, 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise
