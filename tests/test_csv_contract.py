"""The CSV contract: every byte and exit code of the command line's reports.

Each case runs ``cli.main`` in-process at seeds 0 and 1 and compares the
SHA-256 of the CSV it writes, and its exit code, with the table below:
every figure at two drops and four trials, with and without the
reference solver; ``validate --check`` at 200 trials, whose exit code is
pinned as it is; and ``allocate --check`` for every estimator and scheme.

The digests are the bits of numpy 2.4.6 on x86-64 Linux: another numpy
or platform may round a last bit differently.  A change that means to
change a report's bytes says so and updates this table in the same
commit.
"""

import hashlib
import warnings

import pytest

from mimo_pilot.cli import FIGURES, main

SEEDS = (0, 1)

CASES = {
    **{f"figure {name}{ref}": ["figure", name, "--drops", "2", "--trials", "4", *extra]
       for name in FIGURES for ref, extra in (("", []), (" --with-ref", ["--with-ref"]))},
    "validate --check": ["validate", "--trials", "200", "--check"],
    **{f"allocate {method}/{scheme}": ["allocate", "--method", method, "--scheme", scheme,
                                       "--check"]
       for method in ("ls", "mmse") for scheme in ("ppa", "eppa", "ref")},
}

# (seed, case) -> (exit code, SHA-256 of the CSV)
CONTRACT = {
    (0, "figure fig3"):
        (0, "381c0823e37c89376d67a2ab54e09e841010d3eeccf5fd7cdae0cfa8ccc15f87"),
    (0, "figure fig3 --with-ref"):
        (0, "10f755aa7c89c4aad9a9a174681bf8b66c73380bf0fe0453a72f0b6c2b4adfe0"),
    (0, "figure fig4a"):
        (0, "d8cce728cc74c4f48c9035b95c949d922020ec725f1d47797684d340fadde014"),
    (0, "figure fig4a --with-ref"):
        (0, "ae8c7fbd2e10b435ef49c498ce566d5c7d270b172ce102237154d02f94130955"),
    (0, "figure fig4b"):
        (0, "44433314183b0a424788b64862afb15825e758413c0f10d30c6e586981e53d65"),
    (0, "figure fig4b --with-ref"):
        (0, "abafbea8125367b48dcc61a2bd0915b780b439a9f35cdec2dbf16d1354e3bc63"),
    (0, "figure fig5a"):
        (0, "cfb6ef396bf08f4b2f38bed381a0b10ecebf8f178eecb22300ac776f20ea675f"),
    (0, "figure fig5a --with-ref"):
        (0, "d212d750acbd17578d4341fc3fe4d2f251e82d97d260a4f9c21fa9f1d72a75fc"),
    (0, "figure fig5b"):
        (0, "b1fd4d5df20f156293e30a412a3429b8b2159d099d595c1b1e486168dd05487a"),
    (0, "figure fig5b --with-ref"):
        (0, "7d8980df2cb605cbf82e6a967438262655cb220594f139f37723687a255add3d"),
    (0, "validate --check"):
        (1, "84c23fca2466daee445458268284336119b2a1c62bb5b4486a30ffc73d0f3f43"),
    (0, "allocate ls/ppa"):
        (0, "bb69242e95b29df591a582af89172732efc3d15f0c51e86df21ce37c7248db21"),
    (0, "allocate ls/eppa"):
        (1, "cec88432740dd715396ddac0b8076dd4c9ff85061ee35bd1b203fb9baede162f"),
    (0, "allocate ls/ref"):
        (0, "3780b2687a7a5d4e121099c07411ad0e72f6cb61f7ebcc5b44c533c7ff6cb0c1"),
    (0, "allocate mmse/ppa"):
        (0, "d061130b91c665127b3fe68340845bed7b7c6693f04736148ec66c5e2c6a4b93"),
    (0, "allocate mmse/eppa"):
        (1, "993ef84ff25b9e8df6f764b3abdd468698d2ec8830566b21164b69f03a6e68d4"),
    (0, "allocate mmse/ref"):
        (0, "f6a1d9452363ac223d7a152e9ef05641479653f6c62949479dac047d5ce122d9"),
    (1, "figure fig3"):
        (0, "fe97ff5ae1905f8be352e10b8daebec4b4ad6385e59caca0f8ccde0da67a1f47"),
    (1, "figure fig3 --with-ref"):
        (0, "a97ab7af56bdd8c991c0f225f7e3d8a91d7f5784ed503cb7eaba78e8490f93ef"),
    (1, "figure fig4a"):
        (0, "6bdc10c9771370c13b70d62245157b24b6d97815daad05e3a5a1e337e69502fc"),
    (1, "figure fig4a --with-ref"):
        (0, "44b8d0510fdd38e5469df6e61d58dd4e5632c4bff7691a8a1d8538b3047405db"),
    (1, "figure fig4b"):
        (0, "2cc6459b77263290532d2ea1f9cd65e3e2f88b5f02d32be4a7b9c2687f5183c1"),
    (1, "figure fig4b --with-ref"):
        (0, "068bf0f979ac6b550e46e152ecc286d721bd5a9d2a191d928574173da1186868"),
    (1, "figure fig5a"):
        (0, "51757f43baeed8709cbdae9c95b6b2b3183a2b1716f7874a006df4d33d9910c4"),
    (1, "figure fig5a --with-ref"):
        (0, "cfea722368c121bfc9dcea2a809284f7a354c7f81e027011eda2fd5d2231f010"),
    (1, "figure fig5b"):
        (0, "1a5a188f3d64193ff92e79dffc4e2dbd9ef31dd00a53d916831bed5e31fa5467"),
    (1, "figure fig5b --with-ref"):
        (0, "4977645d9360ef7d3cb6a9482332df29c9dc675c5be5987ce18b4e5acbf67cf2"),
    (1, "validate --check"):
        (0, "689c93729d6b94822acabc2cbf935c3af33e55184d1d852ca580f3900d2b48af"),
    (1, "allocate ls/ppa"):
        (0, "fa5fe696d28947c8cf3fad394e29531de3f650c24c5e02b40d280c51f02e35d5"),
    (1, "allocate ls/eppa"):
        (1, "d5a4efe02cb789ce9977f01b3e74d63c4ee4f757a278c22f4ddf9688bf3a6eca"),
    (1, "allocate ls/ref"):
        (0, "bb5b091de79bafb161c62a6c1787f556266d731d8f44f79650495c89cecda683"),
    (1, "allocate mmse/ppa"):
        (0, "a55f6629427eef0690d48e339fa503cb359c3c0fd43ed1f3645cfb87aae0677c"),
    (1, "allocate mmse/eppa"):
        (1, "86241dc1280d55d00f1eff31afd258de48a9740250c0f64d2fb93bda8e0f7db0"),
    (1, "allocate mmse/ref"):
        (0, "72892338d79136487c6235b4bba548a2c277d36855a42c943688d827769c4df5"),
}


def run_case(argv, seed, path):
    """``main``'s exit code and the SHA-256 of the CSV it writes to ``path``."""
    with warnings.catch_warnings():
        # an unconverged reference solve warns; its bytes are what is pinned
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main([*argv, "--seed", str(seed), "--out", str(path)])
    return code, hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", list(CASES))
def test_report_bytes_and_exit_code(case, seed, tmp_path, capsys):
    assert run_case(CASES[case], seed, tmp_path / "out.csv") == CONTRACT[seed, case]
