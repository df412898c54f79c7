import copy
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from proxinorm.construction import canonical_table
from proxinorm.descent import DescentChain, verify_chain
from proxinorm.vectors import format_rational, parse_rational

CLI = [sys.executable, "-m", "proxinorm.cli"]


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=env
    )


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def test_norm_of_zero_vector(tmp_path):
    vec = write_json(tmp_path / "zero.json", {})
    out = run_cli("norm", "--vec", vec)
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["lo"] == "0" and data["hi"] == "0"


def test_norm_deterministic_output(tmp_path):
    vec = write_json(tmp_path / "x.json", {"1": "2/3", "4": "-1/5"})
    a = run_cli("norm", "--vec", vec)
    b = run_cli("norm", "--vec", vec)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout  # byte-identical


def test_norm_deeper_than_int_str_limit(tmp_path):
    vec = write_json(tmp_path / "x.json", {"1": "2/3", "4": "-1/5"})
    out = run_cli("norm", "--vec", vec, "--bits", "20000")
    assert out.returncode == 0, out.stderr
    data = json.loads(out.stdout)
    assert len(data["hi"]) > 4300  # past the default int/str digit limit
    lo, hi = parse_rational(data["lo"]), parse_rational(data["hi"])
    assert 0 < lo <= hi
    assert (format_rational(lo), format_rational(hi)) == (data["lo"], data["hi"])


def test_enclosure_json_past_int_str_limit_in_fresh_process():
    """Library round trip at the interpreter's default digit limit."""
    script = """
import sys
from fractions import Fraction
from proxinorm.norms import Enclosure
if hasattr(sys, "get_int_max_str_digits"):
    assert sys.get_int_max_str_digits() == 4300
enc = Enclosure(Fraction(3**10000, 2**20000), Fraction(3**10000 + 1, 2**20000), 9)
obj = enc.to_json()
assert len(obj["lo"]) > 4300
assert Enclosure.from_json(obj) == enc
print("ok")
"""
    env = dict(os.environ)
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "ok\n"


def test_construct_dump(tmp_path):
    out = run_cli("construct", "--k-max", "5")
    assert out.returncode == 0
    lines = [json.loads(line) for line in out.stdout.splitlines()]
    assert [row["k"] for row in lines] == [1, 2, 3, 4, 5]
    assert lines[0] == {"k": 1, "u": {}, "a": 1}
    assert all(row["a"] >= row["k"] for row in lines)


@pytest.mark.parametrize("k_max", ["0", "-3"])
def test_construct_rejects_k_max_below_one(k_max):
    assert_input_error(run_cli("construct", "--k-max", k_max), "k-max must be >= 1")


def test_deriv_minus_flag(tmp_path):
    x = write_json(tmp_path / "x.json", {"1": "1"})
    u = write_json(tmp_path / "u.json", {"1": "1"})
    plus = run_cli("deriv", "--x", x, "--u", u)
    minus = run_cli("deriv", "--x", x, "--u", u, "--minus")
    assert plus.returncode == minus.returncode == 0
    assert json.loads(plus.stdout)["sign"] == "positive"
    assert json.loads(minus.stdout)["sign"] == "positive"


def test_demo_contains_determinant():
    out = run_cli("demo", "--n", "2")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["determinant"] == -4
    assert data["psi_matches_prediction"] is True


def test_demo_byte_identical_across_processes():
    a = run_cli("demo", "--n", "2")
    b = run_cli("demo", "--n", "2")
    assert a.stdout == b.stdout and a.returncode == b.returncode == 0


#: sha256 of the stdout of ``demo --n N`` for N = 2..6, pinned bytes.
DEMO_SHA256 = {
    2: "ff9c9ce3f53259a67cf75ca4e29e125e1cbb97eabf59ce5eca981dd1dbec7bf2",
    3: "98817358fab8ee71c9db936d419980e4f1b8f4813d1028964976681d14d3715c",
    4: "1b17d396f4fcc2dce95b0eafa30e08d87b681f48b9942feae79fd747f0bcbd10",
    5: "e219abe0339ee09bad73f6e809456737149813ccea8d8c27f629a8934c4c93ce",
    6: "a96ae20829a68e9a238d630a1266c831b2b2d34df5c3054be1964c929df040b1",
}

#: sha256 of ``descend`` stdout: 10 steps on ker(e1, e2) from the first
#: criterion-6 start.
DESCEND_SHA256 = "35855d1c279080621ddf17fe1b7848e2806ff3b4a67f3c1f624640051572627e"


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_demo_golden_bytes():
    for n, digest in DEMO_SHA256.items():
        out = run_cli("demo", "--n", str(n))
        assert out.returncode == 0, out.stderr
        assert sha256(out.stdout) == digest, f"demo --n {n} output changed"


def test_descend_golden_bytes(tmp_path, criterion6_starts):
    e1 = write_json(tmp_path / "e1.json", {"1": "1"})
    e2 = write_json(tmp_path / "e2.json", {"2": "1"})
    x0 = write_json(tmp_path / "x0.json", criterion6_starts[0].to_json())
    out = run_cli("descend", "--phi", e1, "--phi", e2, "--x0", x0, "--steps", "10")
    assert out.returncode == 0, out.stderr
    assert sha256(out.stdout) == DESCEND_SHA256


#: ``norm`` of NORM_X and ``deriv`` (with and without ``--minus``) of KINK_X
#: along KINK_U, all at 4096 bits.  KINK_X attains its sup norm at two
#: coordinates that KINK_U moves in opposite senses, so the one-sided
#: derivatives differ in sign.
NORM_X = {"1": "2/3", "2": "-1/4", "5": "1/2"}
KINK_X = {"1": "2/3", "2": "-2/3", "5": "1/2"}
KINK_U = {"1": "1", "2": "1", "5": "-1/3"}
ENCLOSURE_SHA256 = {
    "norm": "0137633777971d1fe529ee2d85e0cb54b9cf409c9f96a25cdf43c15e8570cbc8",
    "deriv": "af5f343e39ddcdeb7330315d2cbbc4c292a244e5dfbcd9d1cb46596cf12d8641",
    "deriv --minus": "b3f0011e14c7be6bd6e2c0e40d3fefd7682d480d939bd8e65f3ea6e3b7c5af9d",
}

#: ``verify`` stdout on the ``descend`` chain of DESCEND_SHA256, and on a
#: copy whose step-2 ``d_plus`` depth is raised by one.
VERIFY_SHA256 = "d13b4ec5b120af3a5d3eeae12bf04920fdfba73b863ef2572a36e1dc0e8624ba"
VERIFY_TAMPERED_SHA256 = "4901eaafaa7f1261828ccccbd731cbe5bea5e91fb58eb4ee327feeacc6312e11"


@pytest.fixture(scope="module")
def pinned_chain(tmp_path_factory, criterion6_starts):
    """The ``descend`` chain that DESCEND_SHA256 pins, as a JSON object."""
    tmp = tmp_path_factory.mktemp("pinned")
    e1 = write_json(tmp / "e1.json", {"1": "1"})
    e2 = write_json(tmp / "e2.json", {"2": "1"})
    x0 = write_json(tmp / "x0.json", criterion6_starts[0].to_json())
    out = run_cli("descend", "--phi", e1, "--phi", e2, "--x0", x0, "--steps", "10")
    assert out.returncode == 0, out.stderr
    assert sha256(out.stdout) == DESCEND_SHA256
    return json.loads(out.stdout)


def test_enclosure_golden_bytes(tmp_path):
    vec = write_json(tmp_path / "x.json", NORM_X)
    x = write_json(tmp_path / "kx.json", KINK_X)
    u = write_json(tmp_path / "ku.json", KINK_U)
    runs = {
        "norm": run_cli("norm", "--vec", vec, "--bits", "4096"),
        "deriv": run_cli("deriv", "--x", x, "--u", u, "--bits", "4096"),
        "deriv --minus": run_cli("deriv", "--x", x, "--u", u, "--minus", "--bits", "4096"),
    }
    for name, out in runs.items():
        assert out.returncode == 0, out.stderr
        assert sha256(out.stdout) == ENCLOSURE_SHA256[name], f"{name} output changed"
    assert list(json.loads(runs["deriv"].stdout)) == ["lo", "hi", "depth", "sign"]


def test_verify_golden_bytes(tmp_path, pinned_chain):
    out = run_cli("verify", "--cert", write_json(tmp_path / "chain.json", pinned_chain))
    assert out.returncode == 0, out.stderr
    assert sha256(out.stdout) == VERIFY_SHA256
    tampered = copy.deepcopy(pinned_chain)
    tampered["certificates"][2]["d_plus"]["depth"] += 1
    out = run_cli("verify", "--cert", write_json(tmp_path / "tampered.json", tampered))
    assert out.returncode == 1, out.stderr
    assert sha256(out.stdout) == VERIFY_TAMPERED_SHA256


def _shift(delta):
    return lambda text: format_rational(parse_rational(text) + delta)


def _scale(factor):
    return lambda text: format_rational(parse_rational(text) * factor)


#: One tamper of each kind in the bench's verify corpus, applied to the
#: pinned chain (``None`` as the last key: the vector's lowest index), and
#: the verdict of ``from_json`` then ``verify_chain``: the outcome and its
#: problems, or the exception's type and message.  A crossed ``lo``/``hi``
#: still raises ValueError; these verdicts were recorded before the
#: verifier's decoding was reworked for speed.
PINNED_TAMPERS = {
    "lo-raised": (("certificates", 1, "norm_after", "lo"), _shift(1),
                  ("ValueError", "enclosure with lo > hi")),
    "lo-lowered": (("certificates", 1, "norm_after", "lo"), _shift(-Fraction(1, 2**64)),
                   ("rejected", ["step 1: norm_after does not recompute"])),
    "hi-raised": (("certificates", 3, "norm_before", "hi"), _shift(Fraction(1, 2**64)),
                  ("rejected", ["step 3: norm_before does not recompute"])),
    "hi-lowered": (("certificates", 3, "norm_before", "hi"), _shift(-1),
                   ("ValueError", "enclosure with lo > hi")),
    "depth-raised": (("certificates", 0, "d_minus", "depth"), lambda d: d + 1,
                     ("rejected", ["step 0: d_minus does not recompute"])),
    "depth-lowered": (("certificates", 0, "d_minus", "depth"), lambda d: d - 1,
                      ("rejected", ["step 0: d_minus does not recompute"])),
    "h-doubled": (("certificates", 1, "h"), _scale(2),
                  ("rejected", ["step 1: norm_after does not recompute",
                                "step 2: base point does not chain"])),
    "h-halved": (("certificates", 1, "h"), _scale(Fraction(1, 2)),
                 ("rejected", ["step 1: norm_after does not recompute",
                               "step 2: base point does not chain"])),
    "x-entry": (("certificates", 1, "x", None), _shift(Fraction(1, 3)),
                ("rejected", ["step 1: base point does not chain",
                              "step 1: norm_before does not recompute",
                              "step 1: norm_after does not recompute",
                              "step 1: iterate left the coset",
                              "step 2: base point does not chain"])),
    "v-entry": (("certificates", 1, "v", None), _shift(Fraction(1, 3)),
                ("rejected", ["step 1: norm_after does not recompute",
                              "step 1: d_plus does not recompute",
                              "step 1: d_minus does not recompute",
                              "step 2: base point does not chain"])),
    "x0-entry": (("x0", None), _shift(Fraction(1, 3)),
                 ("rejected", ["step 0: base point does not chain"]
                  + [f"step {t}: iterate left the coset" for t in range(10)])),
}


def verdict(doc):
    try:
        problems = verify_chain(canonical_table(), DescentChain.from_json(doc))
    except Exception as exc:  # the verdict names it
        return type(exc).__name__, str(exc)
    return ("rejected" if problems else "accepted"), problems


def test_pinned_chain_verdict_untampered(pinned_chain):
    assert verdict(copy.deepcopy(pinned_chain)) == ("accepted", [])


@pytest.mark.parametrize("case", sorted(PINNED_TAMPERS))
def test_pinned_tamper_verdicts(pinned_chain, case):
    (*parents, last), change, expected = PINNED_TAMPERS[case]
    doc = copy.deepcopy(pinned_chain)
    target = doc
    for key in parents:
        target = target[key]
    if last is None:
        last = min(target, key=int)
    target[last] = change(target[last])
    assert verdict(doc) == expected


def test_verify_reports_disjoint_norm_enclosures(tmp_path, pinned_chain):
    """An interior norm_before moved up by 1 at both ends misses the
    previous norm_after: a problem of step 1, not a traceback."""
    chain = copy.deepcopy(pinned_chain)
    enc = chain["certificates"][1]["norm_before"]
    enc["lo"], enc["hi"] = _shift(1)(enc["lo"]), _shift(1)(enc["hi"])
    out = run_cli("verify", "--cert", write_json(tmp_path / "chain.json", chain))
    assert out.returncode == 1 and "Traceback" not in out.stderr, out.stderr
    assert json.loads(out.stdout) == {
        "valid": False, "problems": ["step 1: norm_before does not recompute"]}


#: A stored depth outside [1, depth budget] is a precondition or budget
#: error of the whole run, not a problem string; recorded before the
#: verifier had its own kernel.
OUT_OF_RANGE_DEPTHS = {
    "zero": (0, 1, "error: depth must be >= 1\n"),
    "past-budget": (10**7, 2, "budget exhausted: table index 5001 exceeds depth budget 5000\n"),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE_DEPTHS))
def test_verify_out_of_range_depth(tmp_path, pinned_chain, case):
    depth, code, stderr = OUT_OF_RANGE_DEPTHS[case]
    chain = copy.deepcopy(pinned_chain)
    chain["certificates"][0]["norm_before"]["depth"] = depth
    out = run_cli("verify", "--cert", write_json(tmp_path / "chain.json", chain))
    assert (out.returncode, out.stdout, out.stderr) == (code, "", stderr)


def assert_input_error(out, message):
    assert out.returncode == 1
    assert out.stdout == ""
    assert "Traceback" not in out.stderr
    assert out.stderr.startswith("error: ") and message in out.stderr, out.stderr


def test_norm_rejects_an_underscored_vector_key(tmp_path):
    out = run_cli("norm", "--vec", write_json(tmp_path / "x.json", {"1_0": "1"}))
    assert_input_error(out, "vector index must be an integer, got '1_0'")


def test_verify_rejects_flipped_sign_field(tmp_path, pinned_chain):
    chain = copy.deepcopy(pinned_chain)
    d_plus = chain["certificates"][0]["d_plus"]
    assert d_plus["sign"] in ("positive", "negative")
    d_plus["sign"] = "negative" if d_plus["sign"] == "positive" else "positive"
    out = run_cli("verify", "--cert", write_json(tmp_path / "flipped.json", chain))
    assert_input_error(out, "sign field inconsistent with lo/hi")


def _set_field(path, value):
    def mutate(chain):
        *parents, last = path
        target = chain
        for key in parents:
            target = target[key]
        target[last] = value(target[last]) if callable(value) else value
    return mutate


#: Ill-typed fields of a chain document and the message each must raise.
#: A float or string depth used to be truncated or parsed by ``int()``,
#: so the chain still verified.
MALFORMED_CHAINS = {
    "depth-float": (_set_field(("certificates", 1, "norm_before", "depth"), lambda d: d + 0.5),
                    "enclosure depth must be an integer"),
    "depth-integral-float": (_set_field(("certificates", 1, "norm_after", "depth"), float),
                             "enclosure depth must be an integer"),
    "depth-numeric-string": (_set_field(("certificates", 1, "d_plus", "depth"), str),
                             "derivative enclosure depth must be an integer"),
    "depth-string": (_set_field(("certificates", 0, "d_minus", "depth"), "abc"),
                     "derivative enclosure depth must be an integer"),
    "depth-null": (_set_field(("certificates", 0, "norm_before", "depth"), None),
                   "enclosure depth must be an integer"),
    "depth-bool": (_set_field(("certificates", 0, "norm_before", "depth"), True),
                   "enclosure depth must be an integer"),
    "lo-number": (_set_field(("certificates", 0, "norm_after", "lo"), 1),
                  "rational must be a string"),
    "hi-number": (_set_field(("certificates", 0, "d_plus", "hi"), 0.5),
                  "rational must be a string"),
    "h-number": (_set_field(("certificates", 0, "h"), 5), "rational must be a string"),
    "h-exponent": (_set_field(("certificates", 0, "h"), "1e3"),
                   "error: bad rational literal '1e3'\n"),
    "certificates-object": (_set_field(("certificates",), {}),
                            "certificates must be a JSON array"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CHAINS))
def test_verify_rejects_malformed_fields(tmp_path, pinned_chain, case):
    mutate, message = MALFORMED_CHAINS[case]
    chain = copy.deepcopy(pinned_chain)
    mutate(chain)
    out = run_cli("verify", "--cert", write_json(tmp_path / "bad.json", chain))
    assert_input_error(out, message)


@pytest.mark.parametrize("depth", [60.5, "60", None])
def test_feasible_rejects_non_integer_report_depth(tmp_path, depth):
    x = write_json(tmp_path / "x.json", {"1": "2/3", "2": "-1/4", "5": "1/2"})
    z = write_json(tmp_path / "z.json", {"1": "1"})
    out = run_cli("approxlin", "--x", x, "--z", z, "--prefix", "60")
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    report["depth"] = depth
    phi = write_json(tmp_path / "phi.json", {"1": "1"})
    feas = run_cli("feasible", "--report", write_json(tmp_path / "r.json", report), "--phi", phi)
    assert_input_error(feas, "report depth must be an integer")


@pytest.mark.parametrize("prefix", ["0", "-5"])
def test_approxlin_rejects_prefix_below_one(tmp_path, prefix):
    x = write_json(tmp_path / "x.json", {"1": "2/3", "2": "-1/4", "5": "1/2"})
    z = write_json(tmp_path / "z.json", {"1": "1"})
    out = run_cli("approxlin", "--x", x, "--z", z, "--prefix", prefix)
    assert_input_error(out, "depth must be >= 1")


@pytest.mark.parametrize("trials", ["-1", "-3"])
def test_approxlin_rejects_negative_trials(tmp_path, trials):
    x = write_json(tmp_path / "x.json", {"1": "2/3", "2": "-1/4", "5": "1/2"})
    z = write_json(tmp_path / "z.json", {"1": "1"})
    out = run_cli("approxlin", "--x", x, "--z", z, "--prefix", "60", "--trials", trials)
    assert_input_error(out, "--trials must be >= 0")


def test_approxlin_accepts_zero_trials(tmp_path):
    x = write_json(tmp_path / "x.json", {"1": "2/3", "2": "-1/4", "5": "1/2"})
    z = write_json(tmp_path / "z.json", {"1": "1"})
    zero = run_cli("approxlin", "--x", x, "--z", z, "--prefix", "60", "--trials", "0")
    default = run_cli("approxlin", "--x", x, "--z", z, "--prefix", "60")
    assert zero.returncode == default.returncode == 0, zero.stderr
    assert zero.stdout == default.stdout


@pytest.fixture(scope="module")
def report_with_exclusion(tmp_path_factory):
    """An ``approxlin`` report whose index 4 is excluded and 16 usable."""
    tmp = tmp_path_factory.mktemp("report")
    x = write_json(tmp / "x.json", {"1": "2/3", "2": "-1/4", "4": "1"})
    z = write_json(tmp / "z.json", {"1": "1"})
    out = run_cli("approxlin", "--x", x, "--z", z, "--prefix", "300")
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert report["usable"] == [16] and "4" in report["excluded"]
    return report


#: Ill-typed report fields and the message each must raise.  The first three
#: used to be truncated, crash with a traceback, or be split into characters.
MALFORMED_REPORTS = {
    "usable-float": (lambda r: r.update(usable=[16.5]), "report usable index must be an integer"),
    "indices-float-key": (lambda r: r["indices"].update({"7.5": 3}),
                          "report indices key must be an integer"),
    "reasons-string": (lambda r: r["excluded"].update({"4": "abc"}),
                       "exclusion reasons must be a list of strings"),
    "usable-number": (lambda r: r.update(usable=16), "report usable has the wrong JSON type"),
    # index sets that disagree used to crash span_match_feasible with a KeyError
    "eps-upper-missing-index": (lambda r: r["eps_upper"].clear(),
                                "report eps_upper indices differ from the usable indices"),
    "eps-lower-extra-index": (lambda r: r["eps_lower"].update({"5": "1/2"}),
                              "report eps_lower indices differ from the usable indices"),
    "gamma-missing-index": (lambda r: r["gamma"].clear(),
                            "report gamma indices differ from the usable indices"),
    "usable-without-gamma": (lambda r: r.update(usable=[5, 16]),
                             "report gamma indices differ from the usable indices"),
    # two spellings of one index used to be last-wins
    "gamma-index-twice": (lambda r: r["gamma"].update({"016": r["gamma"]["16"]}),
                          "report gamma key '016' names index 16 twice"),
    "excluded-index-twice": (lambda r: r["excluded"].update({"04": ["sup-active"]}),
                             "report excluded key '04' names index 4 twice"),
    "x-index-twice": (lambda r: r["x"].update({"01": "2/3"}), "vector index '01' names index 1 twice"),
    # a repeated usable index used to pass, as the index sets were compared as sets
    "usable-index-twice": (lambda r: r.update(usable=[16, 16]), "report usable lists index 16 twice"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_REPORTS))
def test_feasible_rejects_malformed_report_fields(tmp_path, report_with_exclusion, case):
    mutate, message = MALFORMED_REPORTS[case]
    report = copy.deepcopy(report_with_exclusion)
    mutate(report)
    phi = write_json(tmp_path / "phi.json", {"1": "1"})
    feas = run_cli("feasible", "--report", write_json(tmp_path / "r.json", report), "--phi", phi)
    assert_input_error(feas, message)


def test_approxlin_and_feasible_roundtrip(tmp_path):
    x = write_json(tmp_path / "x.json", {"1": "2/3", "2": "-1/4", "5": "1/2"})
    z1 = write_json(tmp_path / "z1.json", {"1": "1/2", "2": "-1"})
    z2 = write_json(tmp_path / "z2.json", {"1": "1"})
    out = run_cli("approxlin", "--x", x, "--z", z1, "--z", z2, "--prefix", "60", "--trials", "5")
    assert out.returncode == 0
    report = json.loads(out.stdout)
    assert report["usable"]
    assert len(report["trials"]) == 5
    assert all(t["pass"] for t in report["trials"])

    report_path = write_json(tmp_path / "report.json", report)
    gamma_path = write_json(tmp_path / "gamma.json", report["gamma"])
    feas = run_cli("feasible", "--report", report_path, "--phi", gamma_path)
    assert feas.returncode == 0
    decision = json.loads(feas.stdout)
    assert decision["satisfiable"] is True and decision["witness"] == {"1": "1"}

    off = write_json(tmp_path / "off.json", {"999": "1"})
    feas2 = run_cli("feasible", "--report", report_path, "--phi", off)
    assert json.loads(feas2.stdout)["satisfiable"] is False


#: ``approxlin`` with 8 trials on REPORT_X against REPORT_PROBES at prefix 60,
#: and ``feasible`` on that report against two functionals whose
#: Fourier-Motzkin witness is off the centre of its interval, pinned bytes.
REPORT_X = {"1": "2/3", "2": "-1/4", "5": "1/2"}
REPORT_PROBES = ({"1": "1/2", "2": "-1"}, {"1": "1"})
APPROXLIN_SHA256 = "07df48d1d299bc9384d3d9a623a5b6f81a76c455fbf1dbc73247eeba3ec756c2"
FEASIBLE_SHA256 = "ff0ba0b171fae8b181e3adca06294c20e09373857e64be94c6ce325f5ee7b2f9"


def test_approxlin_and_feasible_golden_bytes(tmp_path):
    x = write_json(tmp_path / "x.json", REPORT_X)
    probes = []
    for j, z in enumerate(REPORT_PROBES):
        probes += ["--z", write_json(tmp_path / f"z{j}.json", z)]
    out = run_cli("approxlin", "--x", x, *probes, "--prefix", "60", "--trials", "8")
    assert out.returncode == 0, out.stderr
    assert sha256(out.stdout) == APPROXLIN_SHA256
    report = json.loads(out.stdout)
    assert report["usable"] == [4, 16, 37]
    gamma = {i: parse_rational(g) for i, g in report["gamma"].items()}
    eps16 = parse_rational(report["eps_upper"]["16"])
    # phi1 misses gamma_37 by the factor 1 + eps_16, so the coefficient of
    # phi1 lies in an interval centred at 1 / (1 + eps_16), not at 1.
    phi1 = {"4": report["gamma"]["4"], "16": report["gamma"]["16"],
            "37": format_rational(gamma["37"] * (1 + eps16))}
    feas = run_cli(
        "feasible", "--report", write_json(tmp_path / "report.json", report),
        "--phi", write_json(tmp_path / "phi1.json", phi1),
        "--phi", write_json(tmp_path / "phi2.json", {"4": "1"}),
    )
    assert feas.returncode == 0, feas.stderr
    assert sha256(feas.stdout) == FEASIBLE_SHA256
    assert len(json.loads(feas.stdout)["witness"]) == 2


def test_descend_verify_and_tamper(tmp_path):
    e1 = write_json(tmp_path / "e1.json", {"1": "1"})
    e2 = write_json(tmp_path / "e2.json", {"2": "1"})
    x0 = write_json(tmp_path / "x0.json", {"1": "2/3", "2": "-1/4", "5": "1/2"})
    out = run_cli("descend", "--phi", e1, "--phi", e2, "--x0", x0, "--steps", "2")
    assert out.returncode == 0
    chain = json.loads(out.stdout)
    assert len(chain["certificates"]) == 2

    cert_path = write_json(tmp_path / "chain.json", chain)
    ver = run_cli("verify", "--cert", cert_path)
    assert ver.returncode == 0
    assert json.loads(ver.stdout)["valid"] is True

    chain["certificates"][0]["norm_after"]["lo"] = "0"
    bad_path = write_json(tmp_path / "bad.json", chain)
    ver2 = run_cli("verify", "--cert", bad_path)
    assert ver2.returncode == 1
    assert json.loads(ver2.stdout)["valid"] is False


def test_feasible_rejects_non_integer_indices(tmp_path, report_with_exclusion):
    phi = write_json(tmp_path / "phi.json", {"1": "1"})
    report = write_json(tmp_path / "r.json", report_with_exclusion)
    feas = run_cli("feasible", "--report", report, "--phi", phi, "--indices", "7.5")
    assert_input_error(feas, "feasible index must be an integer")


@pytest.mark.parametrize("command", ["norm", "deriv"])
def test_zero_bits_is_an_error(tmp_path, command):
    """``--bits 0`` is out of range, not the config default."""
    x = write_json(tmp_path / "x.json", {"1": "1"})
    args = ["--vec", x] if command == "norm" else ["--x", x, "--u", x]
    out = run_cli(command, *args, "--bits", "0")
    assert_input_error(out, "precision_bits must be in [1, ")


@pytest.mark.parametrize("n", ["0", "-1"])
def test_demo_rejects_codimension_below_two(n):
    assert_input_error(run_cli("demo", "--n", n), "codimension >= 2")


def test_malformed_json_exits_one(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = run_cli("norm", "--vec", str(bad))
    assert out.returncode == 1
    assert "malformed JSON" in out.stderr


def _write_bytes(data):
    def write(path):
        path.write_bytes(data)
        return path
    return write


#: Input files ``json`` or ``open`` cannot read, and the message each gives.
UNREADABLE_INPUTS = {
    "directory": (lambda path: path.mkdir() or path, "Is a directory"),
    "not-utf8": (_write_bytes(b'{"1": "\xff"}'), "not UTF-8 text (byte 7)"),
    "long-integer": (_write_bytes(b'{"1": ' + b"7" * 5000 + b"}"),
                     "JSON integer past the int/str digit limit"),
    "deep-nesting": (_write_bytes(b"[" * 100_000), "JSON nested too deeply"),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_INPUTS))
def test_unreadable_json_input_exits_one(tmp_path, case):
    make, message = UNREADABLE_INPUTS[case]
    path = str(make(tmp_path / "x.json"))
    out = run_cli("norm", "--vec", path)
    assert_input_error(out, f"error: {path}: {message}\n")


#: JSON texts with a key repeated in one object, which ``json.loads`` alone
#: reads last-wins: (text, command and option that read it, the key).
REPEATED_KEYS = {
    "vector": ('{"1": "1/2", "1": "3"}', ["norm", "--vec"], "1"),
    "nested": ('{"x": {"1": "1", "2": "1", "2": "-1"}, "probes": []}', ["feasible", "--report"], "2"),
}


@pytest.mark.parametrize("case", sorted(REPEATED_KEYS))
def test_a_repeated_json_key_exits_one(tmp_path, case):
    text, command, key = REPEATED_KEYS[case]
    path = tmp_path / "x.json"
    path.write_text(text)
    phi = write_json(tmp_path / "phi.json", {"1": "1"})
    extra = ["--phi", phi] if command[0] == "feasible" else []
    out = run_cli(*command, str(path), *extra)
    assert_input_error(out, f"error: {path}: JSON object repeats the key {key!r}\n")


def test_missing_json_input_exits_one(tmp_path):
    path = tmp_path / "absent.json"
    assert_input_error(run_cli("norm", "--vec", str(path)), f"error: no such file: {path}\n")


def test_bad_field_named_in_diagnostic(tmp_path):
    vec = write_json(tmp_path / "vec.json", {"0": "1"})
    out = run_cli("norm", "--vec", vec)
    assert out.returncode == 1
    assert "0" in out.stderr


def test_env_override_budget(tmp_path):
    out = run_cli("construct", "--k-max", "50", env_extra={"PROXINORM_DEPTH_BUDGET": "10"})
    assert out.returncode == 2
    assert "budget" in out.stderr


def test_config_file(tmp_path):
    cfg = tmp_path / "proxinorm.toml"
    cfg.write_text("# comment\ndepth_budget = 10\n")
    out = run_cli("--config", str(cfg), "construct", "--k-max", "50")
    assert out.returncode == 2


#: Values ``int()`` accepts but that are not decimal digits.
NON_DIGIT_VALUES = {"underscore": "1_0", "plus": "+5", "arabic-indic": "\u0663"}


@pytest.mark.parametrize("source", ["file", "env"])
@pytest.mark.parametrize("case", sorted(NON_DIGIT_VALUES))
def test_config_value_must_be_decimal_digits(tmp_path, case, source):
    value = NON_DIGIT_VALUES[case]
    if source == "file":
        cfg = tmp_path / "proxinorm.toml"
        cfg.write_text(f"depth_budget = {value}\n", encoding="utf-8")
        out = run_cli("--config", str(cfg), "construct", "--k-max", "5")
    else:
        out = run_cli("construct", "--k-max", "5", env_extra={"PROXINORM_DEPTH_BUDGET": value})
    assert_input_error(out, f"error: config key 'depth_budget' must be an integer, got {value!r}")


def test_unknown_config_key(tmp_path):
    cfg = tmp_path / "proxinorm.toml"
    cfg.write_text("nonsense = 5\n")
    out = run_cli("--config", str(cfg), "construct", "--k-max", "5")
    assert out.returncode == 1
    assert "nonsense" in out.stderr


@pytest.mark.parametrize("key", ["precision_bits", "elimination_budget"])
def test_removed_config_keys_are_unknown(tmp_path, key):
    cfg = tmp_path / "proxinorm.toml"
    cfg.write_text(f"{key} = 64\n")
    out = run_cli("--config", str(cfg), "construct", "--k-max", "5")
    assert_input_error(out, f"error: unknown config key {key!r}\n")


def test_precision_environment_variable_is_ignored(tmp_path):
    """``--bits`` is the one way to set the precision of ``norm``."""
    vec = write_json(tmp_path / "x.json", {"1": "2/3", "4": "-1/5"})
    plain = run_cli("norm", "--vec", vec)
    assert plain.returncode == 0, plain.stderr
    env = run_cli("norm", "--vec", vec, env_extra={"PROXINORM_PRECISION_BITS": "8"})
    assert (env.returncode, env.stdout, env.stderr) == (0, plain.stdout, "")
    assert run_cli("norm", "--vec", vec, "--bits", "8").stdout != plain.stdout


@pytest.mark.parametrize("case", ["missing", "directory", "not-utf8"])
def test_unreadable_config_file_exits_one(tmp_path, case):
    cfg = tmp_path / "proxinorm.toml"
    if case == "missing":
        message = f"no such file: {cfg}"
    else:
        make, reason = UNREADABLE_INPUTS[case]
        message = f"{make(cfg)}: {reason}"
    out = run_cli("--config", str(cfg), "construct", "--k-max", "5")
    assert_input_error(out, f"error: {message}\n")


def test_descend_reports_a_short_chain_on_stderr(tmp_path, monkeypatch, capsys):
    """A chain shorter than ``--steps`` is named on stderr with its stop
    reason; stdout and the exit code are those of a complete run."""
    from proxinorm import cli, demo

    e1 = write_json(tmp_path / "e1.json", {"1": "1"})
    e2 = write_json(tmp_path / "e2.json", {"2": "1"})
    x0 = write_json(tmp_path / "x0.json", {"1": "2/3", "2": "-1/4", "5": "1/2"})
    args = ["descend", "--phi", e1, "--phi", e2, "--x0", x0, "--steps", "3"]
    assert cli.main(args) == 0
    full = capsys.readouterr()
    assert full.err == "" and len(json.loads(full.out)["certificates"]) == 3
    monkeypatch.setattr(demo, "REPORT_DEPTH", 2)  # no admissible probes this early
    assert cli.main(args) == 0
    short = capsys.readouterr()
    assert short.err == "descend: certified 0 of 3 steps; stop reason: probe_budget\n"
    assert json.loads(short.out)["certificates"] == []
