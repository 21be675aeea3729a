"""The output contract: pinned sqzqi commands and what they produce.

Each case runs its commands in order, as subprocesses in a fresh temporary
directory, and pins each one's exit code, stdout and stderr, and every file
left there besides the case's inputs.  A pin that is empty or ends in a
newline is the exact text; any other pin is the sha256 of the bytes.  No pin
holds argparse's text, whose wording differs between Python versions.

    python tests/contract.py [SQZQI...]

runs every case, through an installed command if one is given, names each
part that differs and exits 1 on any difference.  To change an output on
purpose, edit its pin by hand and name the change in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import os
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Command(NamedTuple):
    argv: str  # split on spaces
    code: int = 0
    stdout: str = ""
    stderr: str = ""


class Case(NamedTuple):
    commands: list[Command]
    files: dict[str, str] = {}  # every file left besides the inputs: its pin
    inputs: dict[str, str | Callable[[], str]] = {}  # name: text, or what makes it


def seed7_records() -> str:
    """The benchmark's seeded 5,000 records (``perfbench/records_gen.py``), seed 7."""
    return runpy.run_path(str(ROOT / "perfbench" / "records_gen.py"))["generate"](7)[0]


HEADER = ("id,ref_label,x,omega_over_gamma,beta,s_minus_db,s_plus_db,s_err_db,"
          "ft_formula,ft_graphical,ft_err\n")
SKIPPED = "b8b0ed32dbcc9812670a5dd5301989be3c762f993ea28bc5614d0867c6c66fa0"  # shipped dataset
NOT_CERTIFIED = ("sqzqi: numeric failure: bound quadrature did not converge "
                 "(achieved error estimate {})\n")
CASES: dict[str, Case] = {
    # the README's analysis, then the figures drawn from its report
    "report-then-figs-5-6-7": Case([
        Command("analyze --fit --report report.json",
                stdout="d320740acb6cbe39520d76dc2cbbb71036d91d4bfe34e25afbbf5154c34aae1e",
                stderr=SKIPPED),
        Command("plot --fig 5 --report report.json --out fig5.svg"),
        Command("plot --fig 6 --report report.json --out fig6.svg"),
        Command("plot --fig 7 --report report.json --out fig7.svg"),
    ], {
        "report.json": "9a9d56d27d32c12c799f01df00f5b13ea53669e40e5edd42448f6c42b652b7b7",
        "fig5.svg": "6122c9bb9dc837a66224b7efcb432958ca014180ea182a8c6df6f2cdbc21b6b0",
        "fig6.svg": "6f84df4483612db051d2bfdc5f5c7580268939d9bb7fa94809ff1d048452587e",
        "fig7.svg": "b31f77c045fa5857be8886ffa07c41cc5cea258c07a78466eeff59d8c8609601",
    }),
    "fig-4": Case([Command("plot --fig 4 --out f.svg")],
                  {"f.svg": "b11f027903a1ba0618d19dd8b2ee1df299537311158699c0cf48516eb0867d3f"}),
    "fig-5": Case([Command("plot --fig 5 --out f.svg")],
                  {"f.svg": "4f30359539a897dcf003aaeb2512d86799d435f1ee6671c289fb02d89ed989a2"}),
    "fig-6": Case([Command("plot --fig 6 --out f.svg")],
                  {"f.svg": "6035ae8ef4132adda9fecfe2de624d5293ed8abce5a52b62de78b11ea163bd74"}),
    "fig-7": Case([Command("plot --fig 7 --out f.svg")],
                  {"f.svg": "60c6265e94b7cf502f7478a3438cc18df4af2185ae025c7279f0f895a37ccfd9"}),
    "fig-8": Case([Command("plot --fig 8 --out f.svg")],
                  {"f.svg": "483a726aac28de675e8bfd04a23dad6411e3e142d831640b4109158bb3bb0414"}),
    "fig-8-step-0.05": Case([Command("plot --fig 8 --grid-step 0.05 --out f.svg")], {
        "f.svg": "8352273badfaf9433eaea0231be47a038a85de978c62dcef6ea4b8972de1fe4a"}),
    "plot-curves": Case([
        Command("plot --curve gaussian-paper --curve trapezoid-paper-n0.2 --out f.svg")], {
        "f.svg": "ea6d6d48745503de71427978b7511c979935d40c46d6170a388d2f8f6112c8c6"}),
    "csv-default-curves": Case([
        Command("bound --window gaussian --variant paper --ft 0.01:0.5:0.01",
                stdout="3792e230e53befc2518de379f6e9100c0a06223a17afcb100e08050da2d1e07c"),
        Command("bound --window gaussian --variant marecki --ft 0.01:0.5:0.01",
                stdout="1f9d3fb4204f228038906ab645e7f49f0b87ab398261aff313806bd3d264bb6e"),
        Command("bound --window lorentzian2 --variant paper --ft 0.01:0.5:0.01",
                stdout="050ebc072e286ccd5f9263124e926ac06a163ffacc92c2e3bac9dd2af4ec9949"),
        Command("bound --window lorentzian2 --variant marecki --ft 0.01:0.5:0.01",
                stdout="39b94c8bc098b46c08c8805b6fc15f75b3f08ed1451a4f8ef89d58e9c5008255"),
    ]),
    # the README's grid
    "csv-readme": Case([Command(
        "bound --window gaussian --variant paper --ft 0.01:1.0:0.01",
        stdout="60191b7e4a42c5f8c56d10b6e4f1df0e7495168f6ec98c270bd5ca3189f37e0e")]),
    # the square's grids that the quadrature certified before its closed form
    "csv-square": Case([
        Command("bound --window square --allow-square --ft 0.01:0.5:0.01",
                stdout="4d210716ca7ae816ceddff55588163198a7461d6b3e5410317d5c351daac84f1"),
        Command("bound --window square --allow-square --variant marecki --ft 0.01:0.5:0.01",
                stdout="39fc51f662b1b27b8d5410d665b0174145867dcfb58259456531acd10bc30e03"),
        Command("bound --window square --allow-square --scale 1000 --ft 0.01:1:0.01",
                stdout="cf662c3b59130b2a6e91c57b3c975f5d8301459fec0604d833c6210532349c37"),
    ]),
    "csv-trapezoid-n0.001": Case([
        Command("bound --window trapezoid --n 0.001 --ft 0.05:0.5:0.05 --out t.csv")],
        {"t.csv": "500e671a90c4ceab75b75df1fbc9f2779949dd382e55dffa5c6fe03b4406e851"}),
    # every point of this grid takes the 100,000-interval retry
    "csv-trapezoid-retried": Case([Command(
        "bound --window trapezoid --n 0.2 --scale 1e4 --ft 0.01:0.5:0.01",
        stdout="4d818d55c4b072d6ef1cfc45533739e390cc122c66cf5565190120d00f7238ec")]),
    "analyze-seed-7": Case([
        Command("analyze --data seed7.csv --fit --report report.json",
                stdout="c1fb048de0ac10d0fd74b64e2d36fdca38172658e5d74bb31fe321d7d5a32ef4",
                stderr="cdfad4f71fbbe19d43fd74daec6412a73ef376ffa46d749bb19c186d3fabc274"),
    ], {"report.json": "e3586f7cd3776b6cacaababee7f215beed9aa9282a00e4994e827381e9ea79b8"},
        {"seed7.csv": seed7_records}),
    "analyze-trapezoid-fit": Case([
        Command("analyze --fit --curves trapezoid-paper-n0.2,trapezoid-marecki-n0.2 "
                "--report report.json",
                stdout="b08ef615cccf4d395349e4c43fb7fc66de6d91e44f240a9d9bbc2f8164726b14",
                stderr=SKIPPED),
    ], {"report.json": "02f7171e1656c6c876fd2ff2e99196e23c25195fd3decb8fa79e64d24ea22046"}),
    # one phase argument, near, mid and far, for each window
    "omega-t0-gaussian": Case([
        Command("bound --window gaussian --omega-t0 1",
                stdout="R = -0.2022 dB  (window=gaussian, omega_t0=1)\n"),
        Command("bound --window gaussian --omega-t0 2",
                stdout="R = -0.0003 dB  (window=gaussian, omega_t0=2)\n"),
        Command("bound --window gaussian --omega-t0 1e300",
                stdout="R = 0.0000 dB  (window=gaussian, omega_t0=1e+300)\n"),
    ]),
    "omega-t0-lorentzian2": Case([
        Command("bound --window lorentzian2 --omega-t0 1",
                stdout="R = -0.6315 dB  (window=lorentzian2, omega_t0=1)\n"),
        Command("bound --window lorentzian2 --omega-t0 5",
                stdout="R = -0.0002 dB  (window=lorentzian2, omega_t0=5)\n"),
        Command("bound --window lorentzian2 --omega-t0 1e300",
                stdout="R = 0.0000 dB  (window=lorentzian2, omega_t0=1e+300)\n"),
    ]),
    "omega-t0-square": Case([
        Command("bound --window square --allow-square --omega-t0 1",
                stdout="R = -5.0914 dB  (window=square, omega_t0=1)\n"),
        Command("bound --window square --allow-square --omega-t0 1186",
                stdout="R = -0.0023 dB  (window=square, omega_t0=1186)\n"),
        Command("bound --window square --allow-square --omega-t0 2300",
                stdout="R = -0.0012 dB  (window=square, omega_t0=2300)\n"),
        Command("bound --window square --allow-square --omega-t0 2500",
                stdout="R = -0.0011 dB  (window=square, omega_t0=2500)\n"),
        Command("bound --window square --allow-square --omega-t0 1e6",
                stdout="R = -0.0000 dB  (window=square, omega_t0=1e+06)\n"),
        Command("bound --window square --allow-square --omega-t0 1e8",
                stdout="R = -0.0000 dB  (window=square, omega_t0=1e+08)\n"),
    ]),
    "omega-t0-trapezoid": Case([
        Command("bound --window trapezoid --n 0.2 --omega-t0 1",
                stdout="R = -3.9066 dB  (window=trapezoid, omega_t0=1)\n"),
        Command("bound --window trapezoid --n 1 --omega-t0 1186",
                stdout="R = -0.0000 dB  (window=trapezoid, omega_t0=1186)\n"),
        Command("bound --window trapezoid --n 1 --omega-t0 3388",
                stdout="R = -0.0000 dB  (window=trapezoid, omega_t0=3388)\n"),
        Command("bound --window trapezoid --n 0.2 --omega-t0 1e6",
                stdout="R = -0.0000 dB  (window=trapezoid, omega_t0=1e+06)\n"),
        Command("bound --window trapezoid --n 0.2 --omega-t0 1e7",
                stdout="R = 0.0000 dB  (window=trapezoid, omega_t0=1e+07)\n"),
    ]),
    # a spectrum that overflows, and the extreme sides
    "trapezoid-exit-3": Case([
        Command("bound --window trapezoid --n 1e10 --omega-t0 1e300", 3,
                stderr=NOT_CERTIFIED.format("inf")),
        Command("bound --window trapezoid --n 1e300 --omega-t0 1", 3,
                stderr=NOT_CERTIFIED.format("inf")),
        Command("bound --window trapezoid --n 5e-324 --omega-t0 1", 3,
                stderr=NOT_CERTIFIED.format("nan")),
    ]),
    "opa-extremes": Case([Command(
        "opa --x 0.8 --beta 0.975 --w 0 --extremes",
        stdout="fcc8d19ca071318f2636e128b812b63157feedada11b48e23d630471577a2e15")]),
    "opa-ideal-bound": Case([Command(
        "opa --ideal-bound 0.14",
        stdout="ideal OPA bound at F_T=0.14: S- = 0.0499641 (-13.0134 dB)\n")]),
    # the curve_id column of a small --scale, read back by plot
    "curve-id-k5e-05": Case([
        Command("bound --window gaussian --scale 0.00005 --ft 0.5:0.5:0.1",
                stdout="fe76a68766172df4acf0ac48699ff20ddd3e5d6ffe7a95ae57c8cf5836a62b91"),
        Command("plot --curve gaussian-paper-k5e-05 --out k.svg"),
    ], {"k.svg": "a6e267cb593c388e280f04c547953d7df176638d3b851a80e79a7cedddc6400e"}),
    # usage and dataset errors: their messages, and no file left
    "exit-2-omega-t0-out": Case([Command(
        "bound --window gaussian --omega-t0 1 --out o.csv", 2,
        stderr="sqzqi: --out applies to --ft only; --omega-t0 prints one value\n")]),
    "exit-2-missing-dir": Case([Command(
        "bound --window gaussian --ft 0.1:0.2:0.1 --out nodir/x.csv", 2,
        stderr="sqzqi: cannot write nodir/x.csv: No such file or directory\n")]),
    "exit-4-extremes": Case([Command(
        "analyze --data edge.csv", 4,
        stderr="sqzqi: dataset error: line 2: record edge: extremes (-1e-17, 3.0) dB give no "
               "F_T in (0, 1)\n")], inputs={"edge.csv": HEADER + "edge,l,,,,-1e-17,3,,,,\n"}),
    "exit-4-repeated-id": Case([Command(
        "analyze --data dup.csv", 4,
        stderr="sqzqi: dataset error: line 3: record id 'a' repeats line 2\n")],
        inputs={"dup.csv": HEADER + "a,l,,,,-3,6,,,,\na,m,,,,-4,7,,,,\n"}),
}


def differs(pin: str, data: bytes) -> str:
    """Empty if the bytes keep their pin, else what they are against it."""
    text = pin == "" or pin.endswith("\n")
    got = data.decode(errors="replace") if text else hashlib.sha256(data).hexdigest()
    return "" if got == pin else f"is {got!r}, pinned {pin!r}"


def run_case(case: Case, prefix: list[str] | None = None) -> list[str]:
    """Run a case through ``prefix`` (by default ``python -m sqzqi.cli`` on this
    checkout's ``src``): one line for each part that differs from its pin."""
    env = None
    if prefix is None:
        prefix = [sys.executable, "-m", "sqzqi.cli"]
        path = [str(ROOT / "src"), *os.environ.get("PYTHONPATH", "").split(os.pathsep)]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(os.path.abspath(p) for p in path if p))
    diffs = []
    with tempfile.TemporaryDirectory() as tmp:
        here = Path(tmp)
        for name, text in case.inputs.items():
            (here / name).write_text(text if isinstance(text, str) else text())
        for i, command in enumerate(case.commands, 1):
            proc = subprocess.run([*prefix, *command.argv.split()], cwd=here, env=env,
                                  capture_output=True)
            where = f"command {i} ({command.argv})"
            if proc.returncode != command.code:
                diffs.append(f"{where}: exit code {proc.returncode}, pinned {command.code}")
            for part, pin, data in (("stdout", command.stdout, proc.stdout),
                                    ("stderr", command.stderr, proc.stderr)):
                if got := differs(pin, data):
                    diffs.append(f"{where}: {part} {got}")
        left = {path.relative_to(here).as_posix(): path.read_bytes()
                for path in here.rglob("*") if path.is_file()}
    for name in sorted((left.keys() - case.inputs.keys()) | case.files.keys()):
        if name not in case.files:
            diffs.append(f"file {name} is left, and none is pinned")
        elif name not in left:
            diffs.append(f"file {name} is missing")
        elif got := differs(case.files[name], left[name]):
            diffs.append(f"file {name} {got}")
    return diffs


def main(argv: list[str]) -> int:
    # each case runs in its own directory, so a given command's paths are made absolute
    prefix = [os.path.abspath(a) if os.sep in a else a for a in argv] or None
    failed = 0
    for name, case in CASES.items():
        diffs = run_case(case, prefix)
        failed += bool(diffs)
        print(f"{'DIFFERS' if diffs else 'ok'}  {name}")
        for line in diffs:
            print(f"    {line}")
    print(f"{len(CASES) - failed} of {len(CASES)} cases keep their pins")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
