"""Byte identity of listed CLI outputs: each file's sha256 is pinned.

A change that moves any of these bytes must say which and why, and update
the pinned value in the same change.  `verify` writes only to stdout, so its
pins hash the captured stdout.
"""

import contextlib
import hashlib
import io

import pytest

from rotsphere.cli import main

_SPECTRUM = ["spectrum", "--M", "1", "--Omega", "0.4", "--jmax", "21/2", "--imax", "20"]
_MIT = {vs: [*_SPECTRUM, "--bc", "mit", "--varsigma", vs] for vs in ("1", "-1")}
# every MIT shell of both E signs at the largest benchmark truncation, off M = R = 1
_MIT_DEEP = ["spectrum", "--bc", "mit", "--M", "2.7182", "--R", "1.3", "--Omega", "0.5",
             "--jmax", "41/2", "--imax", "60"]

_README = ["--M", "1", "--Omega", "0.5", "--beta", "2", "--r-grid", "0:1:41",
           "--theta-grid", "1.5707963"]
# a 9 x 3 (r, theta) grid: several points and several angles in one call
_GRID_2D = ["--M", "1", "--Omega", "0.5", "--beta", "2", "--mu", "0.25",
            "--r-grid", "0:1:9", "--theta-grid", "0.3,1.2,2.5"]

GOLDEN = {
    "condensate-readme": (
        ["condensate", "--bc", "spectral", *_README],
        "f6988691cdb61ced5687266bf741981919aee339b12920e2d835ca50ed85e04f"),
    "condensate-mit+1": (
        ["condensate", "--bc", "mit", "--varsigma", "1", *_README],
        "24eda54a8d7af86871716efaf0623eea97cc505a0f355d1b4e6370d49d4d073e"),
    "condensate-mit-1": (
        ["condensate", "--bc", "mit", "--varsigma", "-1", *_README],
        "3152b0de7fef77e2d46103a7d02b4b9a0e1d94215de86b7607ae05e833ae8e9a"),
    "condensate-2d-spectral": (
        ["condensate", "--bc", "spectral", *_GRID_2D],
        "8d68a957e8b583442691681b2939f581a6489fca36fa9772db323b6834bd9eba"),
    "condensate-2d-mit+1": (
        ["condensate", "--bc", "mit", "--varsigma", "1", *_GRID_2D],
        "6d03c1a657efea967998cf03556decb2afec1f9d214b76fed98bec2b9675f514"),
    "spectrum-spectral-csv": (
        _SPECTRUM, "3b3ee3ea6ac016327e5b0e7b251c4d90f50aa9eadaf2557d882cc01e2693e59d"),
    "spectrum-spectral-json": (
        [*_SPECTRUM, "--format", "json"],
        "df9d9738e79f1e6d61d7482a2a1fd0a02ee91e2b915bab784ae6e15a4c89871a"),
    "spectrum-mit+1-csv": (
        _MIT["1"], "3a439c3ef6c81d9967191482faf1040c36b9d1c4f9d082e04e2f8d60818ee0de"),
    "spectrum-mit+1-json": (
        [*_MIT["1"], "--format", "json"],
        "8a6d2a04260b0b6352d37109c77a1122b03944ed9876fb3d6134040e7c642c36"),
    "spectrum-mit-1-csv": (
        _MIT["-1"], "afcb42426a240377e87e32098c29807fae22edb50c277b069e89b1f9b81f6a22"),
    "spectrum-mit-1-json": (
        [*_MIT["-1"], "--format", "json"],
        "0d9a7df7f3564bd7967d05c8e247909b8b974dca59614dce8775c778124fd872"),
    "spectrum-mit+1-deep": (
        [*_MIT_DEEP, "--varsigma", "1"],
        "cef8cc5099c3cf6a6b2332579a9c69c70fff2a27efffe7fbc19ca4efaa592be1"),
    "spectrum-mit-1-deep": (
        [*_MIT_DEEP, "--varsigma", "-1"],
        "57394ab93facbac0eefd0299ee09102ecb64f053ed22e33bc3127aa0a69a795b"),
    "zeros": (
        ["zeros", "--order", "3", "--count", "20"],
        "78b71e02872455c791424b8cbee6b70f73491d0f5577a345820587a16b28b3c7"),
    "zeros-deep": (
        ["zeros", "--order", "40", "--count", "200"],
        "21a488ffe37902cbd8ba4a70813d7bc295454c186304e7cd8c6304b49ea89747"),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_output_sha256(name, tmp_path):
    argv, sha = GOLDEN[name]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha


_VERIFY = ["verify", "--M", "1", "--Omega", "0.99", "--beta", "1", "--jmax", "25/2",
           "--imax", "20"]

VERIFY_GOLDEN = {
    "verify-spectral": (
        ["--bc", "spectral"],
        "1caaeffeea3493af5c063cabe30f68cb9151ec3aa84bf175352a35d99253c26f"),
    "verify-mit+1": (
        ["--bc", "mit", "--varsigma", "1"],
        "fa349e10eba7c3c3140525a492291b4ef4820dd85664fce78143ff9eea61ad84"),
    "verify-mit-1": (
        ["--bc", "mit", "--varsigma", "-1"],
        "7bf9af878e6f14dc582ddc172dc6f9c5ba702691b14e1e76d1b174559b0ff778"),
}


@pytest.mark.parametrize("name", VERIFY_GOLDEN)
def test_verify_stdout_sha256(name, capsys):
    flags, sha = VERIFY_GOLDEN[name]
    assert main([*_VERIFY, *flags]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha


# the theta-sweep figure panels: every file a preset writes, by name
PRESET_GOLDEN = {
    "fig1e": {
        "p_theta0.3927.csv": "8fac64e0085b3abc7d47785baee805b5a76b670c9a90bc21059c0fc247773db1",
        "p_theta0.7854.csv": "c09b31e8d386ce12ba13f43ed0aa31e4195ba496b2d306741ebaa8753414a946",
        "p_theta1.1781.csv": "c26be32e863f9dc08ee2b944914dded3ebc51f7a6252047bd1ba34f01eb43168",
        "p_theta1.5708.csv": "f84cd5316795059d5344e070478ed5840d19ad559e2f65e622565daa4a30465c",
    },
    "fig2f": {
        "p_theta0.3927.csv": "e56df1f18bee047290025182f0db111d945e64431a74946516f9adee6cd42b4a",
        "p_theta0.7854.csv": "ddec5dc3a5d1a309093f4f3e9b1ba8f39e4bb490eb4da0edd43470e97d873960",
        "p_theta1.1781.csv": "1124c1d5cfacc90d6fbcd6d1f0ad7b2f87823d0f2e13b8175a2385bf4975f43d",
        "p_theta1.5708.csv": "bae0975bfb39fc754943f825cf29019774fa632db529f67d49e8998aee8fcd02",
    },
}


@pytest.mark.parametrize("preset", PRESET_GOLDEN)
def test_preset_sha256(preset, tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["condensate", "--preset", preset, "--out", str(tmp_path / "p")]) == 0
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.iterdir()}
    assert got == PRESET_GOLDEN[preset]
