"""Byte-level pins on the CLI: the sha256 of every file each command writes
and of its stdout, with the output directory replaced by `<out>`.

A refactor that keeps every output leaves these hashes as they are. A change
that is meant to move an output updates the hash here and states the
largest absolute change of the values it moved.
"""

import contextlib
import hashlib
import io

import pytest

from conftest import PAPER_CFG, PIECEWISE_CFG
from stigmagame import cli

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
        "stdout": "bbdf5268c1515bbcfcb9f509c5e3765cf22db4270de9186e3a15e17ca2f687d3",
    },
    ("paper", "evaluate"): {
        "stdout": "5f67b55ee9a579b6521188c5dcad52738086432f95c795b19edf4b696a27ba80",
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
        "stdout": "ac6390897fbae1712e084b839308d78b68dad5fc2c6964a9588202f4815eedb1",
        "optimize_trace.csv": "73a86493f2b1dde1c51c9402d3e7df93e3416c23c72531f53ec8c4dbdff47b99",
    },
    ("paper", "simulate"): {
        "stdout": "db9432a7cc99f02bae37c5b678d71d9f97df41138e9f26c2117f6a45bba428d0",
        "sim.csv": "74b745185f3f3dd8a4ff44c9737cb2abe77918c7c8d4e99a76b14e38265ee693",
    },
    ("paper", "sweep"): {
        "stdout": "38f1c5b092311c587991a484dd0c644e8b53a5378d5e78e334a847f5b295dedf",
        "sweep.csv": "a1bdb525313c8bed39c952dd62851032feeb8b2bda98329d8bdd9b5e80275515",
    },
    ("piecewise", "check"): {
        "stdout": "fe0ca706dc32ae247df7438f60903a828cc474e074792090501ca5be4cb414e7",
    },
    ("piecewise", "evaluate"): {
        "stdout": "ab50a5147ef90e2e5b8294f4121dbda13b91bb9074d2ac2659a4ee057277f29c",
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
        "stdout": "ef7c6230462192cd861a709658a883d465083e08478643d634e209a86df9cd6e",
        "optimize_trace.csv": "ebc49f53bf06912c2a2e01c52d3816f19505223339d1d64470b680215d1c79fe",
    },
    ("piecewise", "simulate"): {
        "stdout": "6b3778f2c07336cfaaf0e7b70ba77329ee509eb22f6b8bdf4354200e62c85643",
        "sim.csv": "fee94247304c32152c4f757bcc2cd79bfc0089314591d9914c8c89b8ffee3d47",
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
    for path in sorted(out.iterdir()):
        hashes[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_cli_output_bytes(config, command, tmp_path):
    got = run_hashed(CONFIGS[config], COMMANDS[command], tmp_path / "out")
    assert got == GOLDEN[config, command]
