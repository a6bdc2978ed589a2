"""Round-trip fidelity and diagnostics of the channel file format."""

import os
import stat

import numpy as np
import pytest

from irslink import (
    ChannelFileError,
    ChannelSet,
    Scenario,
    load_channels,
    rician_channel,
    save_channels,
)


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
    with pytest.raises(OSError):
        save_channels(random_channels(2), str(target))
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
