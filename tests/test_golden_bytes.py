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
# a large mass: the E < 0 norms there are sensitive to cancellation in E + M
_MIT_HEAVY = ["spectrum", "--bc", "mit", "--varsigma", "1", "--M", "1e6", "--Omega", "0.5",
              "--jmax", "3/2", "--imax", "20"]

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
        _MIT["1"], "19b490f54f822e6cfd9a6747e025b0f2ae8f78c670850c7980f6c6359133026f"),
    "spectrum-mit+1-json": (
        [*_MIT["1"], "--format", "json"],
        "26259229ae750c07c7afaed910ad36e08335da9ea0c19e80f523e75cdb57c975"),
    "spectrum-mit-1-csv": (
        _MIT["-1"], "89cdaa2c21129a6b4d225ffe088940650a3abb26399df2840c1633343e6eb189"),
    "spectrum-mit-1-json": (
        [*_MIT["-1"], "--format", "json"],
        "66d8001c70b9dcde0acc0861fb1faa7ad3a6bb7fcc2be4ae77e5a0c2ab3e8429"),
    "spectrum-mit+1-deep": (
        [*_MIT_DEEP, "--varsigma", "1"],
        "dfae3a3cdeb1ac255975d74ce72fbd9fea154c633f6b3ee5541d8c77bdac2da6"),
    "spectrum-mit-1-deep": (
        [*_MIT_DEEP, "--varsigma", "-1"],
        "a29d45801c8a528dd3c879a33915118ac4ed1e4d0a824c8c0f1289e0dd56f337"),
    "spectrum-mit+1-heavy": (
        _MIT_HEAVY, "36ba24dbdef5d70843eb38714a2e59c5b30119f88390b78f20907e60684bb6de"),
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
        "019b277297ce8c50a69b340f362f15cc2c886009218a527cfe67135d501aa862"),
    "verify-mit-1": (
        ["--bc", "mit", "--varsigma", "-1"],
        "5f1de36c35df3ba0ee426847f74232ce6f4edaa0faf39a1109f5a0e23a9bacac"),
}


@pytest.mark.parametrize("name", VERIFY_GOLDEN)
def test_verify_stdout_sha256(name, capsys):
    flags, sha = VERIFY_GOLDEN[name]
    assert main([*_VERIFY, *flags]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha


# the mass panel of the MIT figure and the theta-sweep panels: every file a
# preset writes, by name
PRESET_GOLDEN = {
    "fig2d": {
        "p_M0_vs+1.csv": "acb66894defcf32784e78ab44d005f76090981031f3645976252031acc42d792",
        "p_M0_vs-1.csv": "4e4caaebe3345e9c9b999837200a1dcd884a32325e100ae19a9bc0d8e0a64d4b",
        "p_M1_vs+1.csv": "917c0fad3b930bb8fd51a2bf1a7f2507940f2ad065172b278cf4e413db899c74",
        "p_M1_vs-1.csv": "e3492f8000d7faf164975f6ebdaff3c3f9624699ec2076b3042b4116150da938",
        "p_M2_vs+1.csv": "70c1e2d8416ddc448256614f1a8f06757a4ecefe6cbf83a1797236dafce356ee",
        "p_M2_vs-1.csv": "62ac2266be4b1806332c277994cc4947c05be0e8f50662eb5b4c2fa5a4e813ea",
    },
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
    # both whole figures, all six panels: `condensate --preset fig1` and `fig2`
    "fig1": {
        "p_a_Omega0.4.csv": "2c793530b108542ca1401dc10c9095f9085da109a3e1975ee2333166233f1e0a",
        "p_a_Omega0.8.csv": "f84cd5316795059d5344e070478ed5840d19ad559e2f65e622565daa4a30465c",
        "p_a_Omega0.csv": "3cd9af479132f8afeaf6ef4da04a4d132ba3694d1657bb7ec235b568ac6a8c01",
        "p_b_Omega0.4.csv": "d877591efcf1f2ac585f7909c2d0c7e9fc2f50d8d4344a3f874cff4cbd4acdf8",
        "p_b_Omega0.8.csv": "db3255b2bb44b9e8f9f327a4d2ed6d269133205d65eb77a925bca1f865d705d7",
        "p_b_Omega0.csv": "3984529385860970aa32c247ee15cab13b87e67fb0be9d3710d0f1eb064908b1",
        "p_c_beta0.5.csv": "dc2da33c2487335fc29753e4238ce456ca5e9b69bc2cbd948b5ddd8e53acdba8",
        "p_c_beta1.csv": "b51adedef093f5d9f34bb53a3f99de51a63b62822953990f21dfe86da5c4e8a5",
        "p_c_beta2.csv": "b16c1c93638fa62248fa7dfb9043065004142273619614575b44087829613f99",
        "p_d_M0.csv": "c1ea1364f7b8e0535960b6f12ec7fef54e9f0ae520263d2d71e42114502f8497",
        "p_d_M1.csv": "b51adedef093f5d9f34bb53a3f99de51a63b62822953990f21dfe86da5c4e8a5",
        "p_d_M2.csv": "3b4b376be2dd7497fa5a799c83af8809284ecd212ba0472e054c83e6caf32eea",
        "p_e_theta0.3927.csv": "8fac64e0085b3abc7d47785baee805b5a76b670c9a90bc21059c0fc247773db1",
        "p_e_theta0.7854.csv": "c09b31e8d386ce12ba13f43ed0aa31e4195ba496b2d306741ebaa8753414a946",
        "p_e_theta1.1781.csv": "c26be32e863f9dc08ee2b944914dded3ebc51f7a6252047bd1ba34f01eb43168",
        "p_e_theta1.5708.csv": "f84cd5316795059d5344e070478ed5840d19ad559e2f65e622565daa4a30465c",
        "p_f_theta0.3927.csv": "e67108644608fb31ede03dddbfa0b5cd8d465c5b3fbcf616e9fdfc18fde48e39",
        "p_f_theta0.7854.csv": "b745e9e4232f24c07154d6b68d238e604a97060fec1d9ac243dc82c9e2c04dce",
        "p_f_theta1.1781.csv": "131c678c9a1d7a54280e02c84c72e40ee17c9b6f6efeaf31e6f1a40e818979fa",
        "p_f_theta1.5708.csv": "db3255b2bb44b9e8f9f327a4d2ed6d269133205d65eb77a925bca1f865d705d7",
    },
    "fig2": {
        "p_a_Omega0.4.csv": "36971a103026faa7ced8c337ac98cd0ce8fa9b2140fd2131d65751ec203bd00a",
        "p_a_Omega0.8.csv": "42f706b18f87519d733d56d83d1beb804fd566b8205f1e8f815270f46c24ce1c",
        "p_a_Omega0.csv": "140f3b15a50c1df94201fdd6e3c9dc62661d672fbb05732adb62f08bab528923",
        "p_b_Omega0.4.csv": "2dc1fdd80fa46f2e3f5c3314ec2ba675289d4c0efb21c5711e0e75bee44bd8be",
        "p_b_Omega0.8.csv": "bae0975bfb39fc754943f825cf29019774fa632db529f67d49e8998aee8fcd02",
        "p_b_Omega0.csv": "36f7cf0c402521f99fbd15ac6df1b9e85f0ada037501b06ea64804216b7391bb",
        "p_c_beta0.5.csv": "54443a3a33f5c300f5203905476a1ac241f5be8d18dbd3a676d1bdc021d982e0",
        "p_c_beta1.csv": "917c0fad3b930bb8fd51a2bf1a7f2507940f2ad065172b278cf4e413db899c74",
        "p_c_beta2.csv": "c7dfd235856ce2f0d525cd0f2ebeb0c8ff1715080aaf7b41b97e5325cae09009",
        "p_d_M0_vs+1.csv": "acb66894defcf32784e78ab44d005f76090981031f3645976252031acc42d792",
        "p_d_M0_vs-1.csv": "4e4caaebe3345e9c9b999837200a1dcd884a32325e100ae19a9bc0d8e0a64d4b",
        "p_d_M1_vs+1.csv": "917c0fad3b930bb8fd51a2bf1a7f2507940f2ad065172b278cf4e413db899c74",
        "p_d_M1_vs-1.csv": "e3492f8000d7faf164975f6ebdaff3c3f9624699ec2076b3042b4116150da938",
        "p_d_M2_vs+1.csv": "70c1e2d8416ddc448256614f1a8f06757a4ecefe6cbf83a1797236dafce356ee",
        "p_d_M2_vs-1.csv": "62ac2266be4b1806332c277994cc4947c05be0e8f50662eb5b4c2fa5a4e813ea",
        "p_e_theta0.3927.csv": "bd1ff9a402c75546ef40154f9b5e38a62ccca489157fc2ec79fb07433ebef8c1",
        "p_e_theta0.7854.csv": "cc0bb59f57b1926c9e7e3d6d23ef67015c8f34f310254f38dcddbcaa568ac31a",
        "p_e_theta1.1781.csv": "1a03fbd6073a14498bc31a25dc7eff68bf19f6e8de577f76c282f1f6d53dd628",
        "p_e_theta1.5708.csv": "42f706b18f87519d733d56d83d1beb804fd566b8205f1e8f815270f46c24ce1c",
        "p_f_theta0.3927.csv": "e56df1f18bee047290025182f0db111d945e64431a74946516f9adee6cd42b4a",
        "p_f_theta0.7854.csv": "ddec5dc3a5d1a309093f4f3e9b1ba8f39e4bb490eb4da0edd43470e97d873960",
        "p_f_theta1.1781.csv": "1124c1d5cfacc90d6fbcd6d1f0ad7b2f87823d0f2e13b8175a2385bf4975f43d",
        "p_f_theta1.5708.csv": "bae0975bfb39fc754943f825cf29019774fa632db529f67d49e8998aee8fcd02",
    },
}


@pytest.mark.parametrize("preset", PRESET_GOLDEN)
def test_preset_sha256(preset, tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["condensate", "--preset", preset, "--out", str(tmp_path / "p")]) == 0
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.iterdir()}
    assert got == PRESET_GOLDEN[preset]
