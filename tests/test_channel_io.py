"""Round-trip fidelity and diagnostics of the channel file format."""

import os
import stat

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from irslink import (
    ChannelFileError,
    ChannelSet,
    Scenario,
    load_channels,
    rician_channel,
    save_channels,
)
from irslink.channel_io import FORMAT_TAG, FORMAT_VERSION


def reference_load(path):
    """Line-by-line loader: every token through float(), one line at a time.

    The oracle for ``load_channels``, which converts whole blocks at once
    and must accept the same files with the same bits and report the same
    errors.
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

    def parse_row(lineno, text, pairs):
        tokens = text.split()
        if len(tokens) != 2 * pairs:
            raise ChannelFileError(f"line {lineno}: expected {2 * pairs} floats, "
                                   f"found {len(tokens)}")
        try:
            vals = np.array([float(tok) for tok in tokens])
        except ValueError as exc:
            raise ChannelFileError(f"line {lineno}: {exc}") from None
        if not np.all(np.isfinite(vals)):
            raise ChannelFileError(f"line {lineno}: non-finite entry")
        return vals[0::2] + 1j * vals[1::2]

    h_r = np.empty((m, n), dtype=np.complex128)
    for i in range(m):
        lineno, text = body[i]
        h_r[i] = parse_row(lineno, text, n)
    h_v = np.empty(n, dtype=np.complex128)
    for i in range(n):
        lineno, text = body[m + i]
        h_v[i] = parse_row(lineno, text, 1)[0]
    h_d = np.empty(m, dtype=np.complex128)
    for i in range(m):
        lineno, text = body[m + n + i]
        h_d[i] = parse_row(lineno, text, 1)[0]
    return ChannelSet(h_r=h_r, h_v=h_v, h_d=h_d)


def outcome(loader, path):
    """Array bytes of a loaded file, or the type and text of its error."""
    try:
        ch = loader(path)
    except Exception as exc:  # noqa: BLE001 - any difference must show
        return type(exc).__name__, str(exc)
    return ch.h_r.tobytes(), ch.h_v.tobytes(), ch.h_d.tobytes()


def random_channels(seed, m=3, n=5):
    rng = np.random.default_rng(seed)
    return ChannelSet(
        h_r=rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)),
        h_v=rng.standard_normal(n) + 1j * rng.standard_normal(n),
        h_d=rng.standard_normal(m) + 1j * rng.standard_normal(m))


def test_round_trip_bit_exact(tmp_path):
    path = str(tmp_path / "ch.txt")
    original = random_channels(0)
    save_channels(original, path)
    loaded = load_channels(path)
    assert np.array_equal(original.h_r, loaded.h_r)
    assert np.array_equal(original.h_v, loaded.h_v)
    assert np.array_equal(original.h_d, loaded.h_d)


def test_round_trip_physical_magnitudes(tmp_path):
    # entries around 1e-5 .. 1e-7 must survive the text format exactly
    path = str(tmp_path / "phys.txt")
    scn = Scenario(irs_rows=4, irs_cols=4, bs_rows=2, bs_cols=2)
    original = rician_channel(scn, np.random.default_rng(6))
    save_channels(original, path)
    loaded = load_channels(path)
    assert np.array_equal(original.h_r, loaded.h_r)
    assert np.array_equal(original.h_v, loaded.h_v)
    assert np.array_equal(original.h_d, loaded.h_d)


def test_file_layout(tmp_path):
    path = str(tmp_path / "layout.txt")
    save_channels(random_channels(1, m=2, n=3), path)
    lines = open(path).read().strip().split("\n")
    assert lines[0] == "channelset v1"
    assert lines[1] == "2 3"
    assert len(lines) == 2 + 2 + 3 + 2
    assert len(lines[2].split()) == 6  # 2N floats per h_r row


def test_comments_and_blank_lines_ignored(tmp_path):
    path = str(tmp_path / "annotated.txt")
    text = "\n".join([
        "# exported channels",
        "",
        "channelset v1",
        "# dimensions",
        "1 1",
        "",
        "1.5 -0.5",
        "0.25 0",
        "# direct link",
        "-1 2",
        "",
    ])
    (tmp_path / "annotated.txt").write_text(text)
    ch = load_channels(path)
    assert ch.h_r[0, 0] == 1.5 - 0.5j
    assert ch.h_v[0] == 0.25
    assert ch.h_d[0] == -1 + 2j


def write_and_fail(tmp_path, name, text, fragment):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(ChannelFileError, match=fragment):
        load_channels(str(path))


def test_empty_file(tmp_path):
    write_and_fail(tmp_path, "empty.txt", "# nothing here\n", "empty")


def test_bad_header(tmp_path):
    write_and_fail(tmp_path, "hdr.txt", "matrixdump v1\n1 1\n", "line 1")


def test_unsupported_version(tmp_path):
    write_and_fail(tmp_path, "ver.txt", "channelset v9\n1 1\n",
                   "unsupported format version")


def test_bad_dimension_line_number(tmp_path):
    # two comments push the dimensions to line 4
    text = "# a\nchannelset v1\n# b\none one\n"
    write_and_fail(tmp_path, "dims.txt", text, "line 4")


def test_nonpositive_dimensions(tmp_path):
    write_and_fail(tmp_path, "zero.txt", "channelset v1\n0 2\n",
                   "must be positive")


def test_missing_data_lines(tmp_path):
    text = "channelset v1\n1 1\n1 0\n2 0\n"  # needs 3 data lines
    write_and_fail(tmp_path, "short.txt", text, "expected 3 data lines")


def test_wrong_token_count_line_number(tmp_path):
    text = "channelset v1\n1 2\n1 0 2 0 9\n1 0\n1 0\n2 0\n"
    write_and_fail(tmp_path, "tokens.txt", text, "line 3")


def test_non_numeric_token(tmp_path):
    text = "channelset v1\n1 1\n1 zero\n1 0\n1 0\n"
    write_and_fail(tmp_path, "alpha.txt", text, "line 3")


def test_non_finite_entry(tmp_path):
    text = "channelset v1\n1 1\n1 0\nnan 0\n1 0\n"
    write_and_fail(tmp_path, "nan.txt", text, "non-finite")
    text = "channelset v1\n1 1\n1 0\ninf 0\n1 0\n"
    write_and_fail(tmp_path, "inf.txt", text, "non-finite")


def test_save_failure_leaves_no_partial_file(tmp_path):
    target = tmp_path / "occupied"
    target.mkdir()  # os.replace onto a directory fails
    # the error names the file asked for, not the temp file beside it
    for path in (target, tmp_path / "nowhere" / "draw.txt"):
        with pytest.raises(OSError) as caught:
            save_channels(random_channels(2), str(path))
        assert caught.value.filename == str(path)
        assert caught.value.filename2 is None
    leftovers = [p for p in tmp_path.iterdir() if p.name != "occupied"]
    assert leftovers == []


def test_saved_file_mode_matches_plain_open(tmp_path):
    old_umask = os.umask(0o022)
    try:
        plain = tmp_path / "plain.txt"
        with open(plain, "w"):
            pass
        saved = tmp_path / "saved.txt"
        save_channels(random_channels(0), str(saved))
    finally:
        os.umask(old_umask)
    assert stat.S_IMODE(saved.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)


def test_load_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_channels(str(tmp_path / "absent.txt"))


def test_round_trip_64x64_bit_exact(tmp_path):
    path = str(tmp_path / "ch64.txt")
    original = random_channels(4, m=8, n=64 * 64)
    save_channels(original, path)
    loaded = load_channels(path)
    assert loaded.h_r.tobytes() == original.h_r.tobytes()
    assert loaded.h_v.tobytes() == original.h_v.tobytes()
    assert loaded.h_d.tobytes() == original.h_d.tobytes()
    assert outcome(load_channels, path) == outcome(reference_load, path)


@pytest.mark.parametrize("text", [
    # an earlier bad entry wins over a later token-count error
    "channelset v1\n1 1\nnan 0\n1\n1 0\n",
    "channelset v1\n1 1\n1 abc\n1\n1 0\n",
    "channelset v1\n2 2\n1 0 1 0\n1 0 1 inf\n1 0 0\n1 0 0\n1 0 0\n1 0 0\n",
    # every line of a block one token short: the block reads, its shape is wrong
    "channelset v1\n2 2\n1 0 1\n1 0 1\n1 0\n1 0\n1 0\n1 0\n",
    "channelset v1\n1 2\n1 0 1 0\n1\n1\n1\n",
    # float() takes these; numpy's block reader does not
    "channelset v1\n1 1\n1_0 0\n\u0661 2\n1 0\n",
    "channelset v1\n1 1\n1_0 0\n1 0\ninf 0\n",
    # non-finite entries located past comments, in h_r, h_v and h_d
    "channelset v1\n# c\n2 2\n1 0 1 0\n\n1 0 1 1e999\n1 0\n1 0\n1 0\n1 0\n",
    "channelset v1\n2 2\n1 0 1 0\n1 0 1 0\n1 0\n# c\n-inf 0\n1 0\n1 0\n",
    "channelset v1\n2 2\n1 0 1 0\n1 0 1 0\n1 0\n1 0\n1 0\n1 nan\n",
    # signed zeros, subnormals and underflow keep their bits
    "channelset v1\n1 2\n-0 0 4e-320 -1e-400\n-0.0 +.5\n1. -0\n1 0\n",
])
def test_block_loader_matches_reference_cases(tmp_path, text):
    path = tmp_path / "case.txt"
    path.write_text(text, encoding="utf-8")
    assert outcome(load_channels, str(path)) == outcome(reference_load, str(path))


SWAP_TOKENS = ["nan", "inf", "-0", "1_0", "0x1p3", "abc", "1e999", "#x", "+.5",
               "-inf", "Infinity", "nan(1)", "1e-400", "4e-320", "\u0661", "1.",
               ".", "-", "1e", "0.1e+2", "1,5", "1\x002"]
SEPARATORS = [" ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\xa0",
              "\u2028", "\u3000"]
INSERTED_LINES = ["", "   ", "#", "# note", "  # indented", "\t"]

_index = st.integers(min_value=0, max_value=10 ** 6)
_mutation = st.one_of(
    st.tuples(st.just("swap"), _index, _index, st.sampled_from(SWAP_TOKENS)),
    st.tuples(st.just("drop"), _index, _index),
    st.tuples(st.just("add"), _index, _index,
              st.sampled_from(SWAP_TOKENS + ["0.5", "-2e-7"])),
    st.tuples(st.just("insert"), _index, st.sampled_from(INSERTED_LINES)),
    st.tuples(st.just("separator"), _index, st.sampled_from(SEPARATORS)),
)


def mutated_text(lines, mutations):
    """Apply (kind, line, ...) edits to a file held as token lists."""
    rows = [[list(line.split()), " "] for line in lines]
    for kind, at, *args in mutations:
        row = rows[at % len(rows)]
        tokens = row[0]
        if kind == "swap" and tokens:
            tokens[args[0] % len(tokens)] = args[1]
        elif kind == "drop" and tokens:
            del tokens[args[0] % len(tokens)]
        elif kind == "add":
            tokens.insert(args[0] % (len(tokens) + 1), args[1])
        elif kind == "insert":
            rows.insert(at % (len(rows) + 1), [[args[0]], " "])
        elif kind == "separator":
            row[1] = args[0]
    return "".join(sep.join(tokens) + "\n" for tokens, sep in rows)


@pytest.fixture(scope="module")
def saved_4x4_lines(tmp_path_factory):
    """Lines of two saved files of a 4x4 surface: a Rician draw, a Gaussian one."""
    scn = Scenario(irs_rows=4, irs_cols=4, bs_rows=2, bs_cols=1)
    out = []
    for i, channels in enumerate([rician_channel(scn, np.random.default_rng(8)),
                                  random_channels(9, m=2, n=16)]):
        path = tmp_path_factory.mktemp("saved") / f"ch{i}.txt"
        save_channels(channels, str(path))
        out.append(path.read_text(encoding="utf-8").splitlines())
    return out


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(which=st.integers(0, 1),
       mutations=st.lists(_mutation, min_size=0, max_size=4))
def test_block_loader_matches_reference_on_mutated_files(
        tmp_path, saved_4x4_lines, which, mutations):
    path = tmp_path / "mutated.txt"
    path.write_text(mutated_text(saved_4x4_lines[which], mutations),
                    encoding="utf-8")
    assert outcome(load_channels, str(path)) == outcome(reference_load, str(path))
