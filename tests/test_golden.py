"""Byte-level pins on the CLI: the sha256 of every file each command writes
and of its stdout, with the output directory replaced by `<out>`; and bit
pins on the chain: the sha256 of every SweepRow field's float.hex() on a
65-point grid, since the CSVs print 12 digits and a last-bit drift would
pass them.

A refactor that keeps every output leaves these hashes as they are. A change
that is meant to move an output updates the hash here and states the
largest absolute change of the values it moved.
"""

import contextlib
import hashlib
import io

import pytest

from conftest import BETA_ABOVE_ONE_CFG, KINKED_CFG, PAPER_CFG, PIECEWISE_CFG
from stigmagame import cli, sweep

CONFIGS = {"paper": PAPER_CFG, "piecewise": PIECEWISE_CFG}
COMMANDS = {
    "check": ["check"],
    "evaluate": ["evaluate"],
    "sweep": ["sweep", "--convention", "paper_literal"],
    "optimize": ["optimize"],
    "simulate": ["simulate", "--pairs", "4096", "--seed", "7"],
    "figures": ["figures", "--svg"],
}

GOLDEN = {
    ("paper", "check"): {
        "stdout": "bf54a4896e5793532759ef89aba0ef56170bf6c15d0fe7e63863aa51568519a7",
    },
    ("paper", "evaluate"): {
        "stdout": "e197c318c861ed42144482c8485353aec869ee6546c1be185194ee2db771ff79",
    },
    ("paper", "figures"): {
        "stdout": "e005960d942557a2315225783c1e47fc2d9edd058afb4cb59eb650e09ee3694d",
        "fig1.csv": "1b1225dd0e40aac8dc76c2ba0667587f20059807fc02f07e93dcf71bac5e8c34",
        "fig1.svg": "039d58615ab6d75e790fb1a6f65728c7d237989c190a6b3501ff9bcb0498b219",
        "fig2.csv": "7d3737d2a2547d7791d66c7c72071a165af430743a68ece53e911a41dd88d566",
        "fig2.svg": "f1d0a16124a92b373a6deaae4fc7a6fc7ee5580b2647fa6d2ba55f951f03a573",
        "fig3.csv": "f8b2b4008d9fee5e410706e0e933780b3f4666e74734b812e2fbb7ed8369c288",
        "fig3.svg": "fba1215d75f6b3f98fb0b6c65bfbd754e4361baf52f08298055599af492c9e7f",
        "fig4.csv": "2cddf0c077726611d57cb371cf477bf253e4cba10091594e9e6b786b4a91d486",
        "fig4.svg": "f06c2b4fbd04742a7a0606fc416d6b04a3164fe3cf943e66d2ff6d3d42b28341",
        "fig5.csv": "83d3a723c9ad80e9ec87e5d4cb87ee9b8a1f8afa955a513624ad709fb0a66349",
        "fig5.svg": "cec23d372e91d181a578d9963420971a7f2e741ff7fdc244f70a5f817678a475",
    },
    ("paper", "optimize"): {
        "stdout": "fc7dbcd51ec80e97d9e86b859445c6f13ffd7e27e138b67f934ec1901136ad28",
        "optimize_trace.csv": "7bb8c22d7ba65f15ac341bfe158d23986b25d33a76baedc069fdaa38a7f2c33d",
    },
    ("paper", "simulate"): {
        "stdout": "d213ae5bb7b9abe5663ef19f6d1c90c78cd7959f9d05e47f12ce9ade0371a56b",
        "sim.csv": "437ac9d7303c8ed08e85df2e5c88b473f7a3bcb9cd13218627de41531bac713f",
    },
    ("paper", "sweep"): {
        "stdout": "38f1c5b092311c587991a484dd0c644e8b53a5378d5e78e334a847f5b295dedf",
        "sweep.csv": "a1bdb525313c8bed39c952dd62851032feeb8b2bda98329d8bdd9b5e80275515",
    },
    ("piecewise", "check"): {
        "stdout": "e4fe857dae2e8f42aa38f591ede321f7eade3379c8790b75674234d210201242",
    },
    ("piecewise", "evaluate"): {
        "stdout": "0bc04a2f635c838784c13522dd13f641b4fe04013518e6b8d910309f07d4bd67",
    },
    ("piecewise", "figures"): {
        "stdout": "e005960d942557a2315225783c1e47fc2d9edd058afb4cb59eb650e09ee3694d",
        "fig1.csv": "34b5b146299fa8556921b5e7dee314f5ae80f4c1e63fafc5d9f82d8ab40424ba",
        "fig1.svg": "14b05355422db9d45a98aa551effe9272dafee3963af640ca3ed627d326660ee",
        "fig2.csv": "2496a4349fba012de163538f73590683b1537ec1312b22090de29a45fd2d4ae1",
        "fig2.svg": "778aa227f988ec94d4f146f50eeb0dfe0945450dd7a71a652e5bd3efc220d7c6",
        "fig3.csv": "3549b2133ae472a462dfb8239394850392b86baaf7755f79978522b8db0dc600",
        "fig3.svg": "15f52a2d5f206991874a5a15ef0936c0b2e13b86e65abf233a5845bd90d135d8",
        "fig4.csv": "f3e8e5111b2f31881b05e4b2933be91b9f369f5bb20fe2562d8aa21fbdcd04d0",
        "fig4.svg": "7debcbbc6d871dec495b66155efbffd15134e68ccfe8d4839ed7f059041eb790",
        "fig5.csv": "f0f02c8fc301fef8d39bd2118fade917c62309e7db0ab57adae6af05d29251bd",
        "fig5.svg": "7acd343ec92ca4cc1893e1ec5957b248c2dbf85e9309029f7b7ebba83937deee",
    },
    ("piecewise", "optimize"): {
        "stdout": "b3fa4b72e1d4c2bb969b552cf8616a705830a6ddabc37a807b0b38559065d920",
        "optimize_trace.csv": "4841b37a4a0292a07033ae2b4b1e9a6ad128d8263a77a5a0f5a8ca7a8a62ca4a",
    },
    ("piecewise", "simulate"): {
        "stdout": "5563cb1c2c95381920e381ffddfdb10428ecae8aba1a5c9d0d7bf2d4a8728499",
        "sim.csv": "e05cdd5433763155405ae60dda0f7f69d19491968109103d30fb56c8ddf31300",
    },
    ("piecewise", "sweep"): {
        "stdout": "38f1c5b092311c587991a484dd0c644e8b53a5378d5e78e334a847f5b295dedf",
        "sweep.csv": "df98ee98377bdcce22db7791fb0c6bdda6387b4fbaa976c2dd757ac00bc9ae57",
    },
}


def run_hashed(config, argv, out) -> dict:
    """{file name or "stdout": sha256 hex} for one CLI run writing to out."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main([*argv, "--config", str(config), "--out", str(out)])
    assert rc == 0
    stdout = buf.getvalue().replace(str(out), "<out>").encode("utf-8")
    hashes = {"stdout": hashlib.sha256(stdout).hexdigest()}
    for path in sorted(out.iterdir()) if out.exists() else ():  # check, evaluate: no --out
        hashes[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_cli_output_bytes(config, command, tmp_path):
    got = run_hashed(CONFIGS[config], COMMANDS[command], tmp_path / "out")
    assert got == GOLDEN[config, command]


CHAIN_CONFIGS = {**CONFIGS, "kinked_optimum": KINKED_CFG, "beta_above_one": BETA_ABOVE_ONE_CFG}
CHAIN_GOLDEN = {
    ("paper", "corrected"): "3add53b92728e44eefd2c710f46b856828992d99f533fde95d7e03173c794e7a",
    ("paper", "paper_literal"): "810712647fce2f7f06f293130d9c87c123bbae81badefa0b123ce0bf5b086d83",
    ("piecewise", "corrected"): "013cc6732bfd440e6f8ccd6e060b21c9d9313b4c0c0f31ab8a749052494ef12d",
    ("piecewise", "paper_literal"): "631f3c05ebc70d319cc6ba7e9a4f2c4e77551619a53a0df9fa9f55428118fcc9",
    ("kinked_optimum", "corrected"): "4842ac42de6d062062fcd7b4db14393063b261f2bb6ace173aaf6891a62c84d6",
    ("kinked_optimum", "paper_literal"): "6e267b46b132d16082af741982167db50a402402297e335236559e80d30c7542",
    ("beta_above_one", "corrected"): "74b77a1357c4d2bdf04cd446f82d2cb78362c85abba2c7d50c5584b8d0a4d161",
    ("beta_above_one", "paper_literal"): "2399bc6612db71528850e14fe2706a81f9848572b23fee9bfbdbfe7d2a9bac2c",
}


@pytest.mark.parametrize("convention", ["corrected", "paper_literal"])
@pytest.mark.parametrize("config", sorted(CHAIN_CONFIGS))
def test_chain_bits(config, convention):
    # one line per tau_hat = k/64, every field as float.hex(); the piecewise
    # grid reaches the all-unsafe regime and every grid starts at S = 0
    params = cli.load_config(CHAIN_CONFIGS[config]).params
    rows = sweep(params, [k / 64 for k in range(65)], convention)
    text = "\n".join(",".join(map(float.hex, row)) for row in rows)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == CHAIN_GOLDEN[config, convention]
