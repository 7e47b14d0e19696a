"""Byte-for-byte golden output of the exact CLI subcommands.

Each case runs `cli.main` in process and compares the SHA-256 of stdout
with a digest frozen from a known-good build.  The cases cover every
format that renders the basis, the pre-measurement states, the gates, the
Δ_QT column, the errata report and the analysis, so a change of
representation behind them cannot alter a single output byte unnoticed.
"""

import hashlib

import pytest

from qutrit_teleport.cli import EXIT_OK, main

GOLDEN = [
    (["basis", "--format", "text"],
     "5f1b186bdc7953263eacd7a180dadaf43250ddda2bca70342de25f487bb5263e"),
    (["basis", "--format", "json"],
     "885daf6d35c17c665969edd5aa68eb8af05b83175220739ecf90e9d29f27126e"),
    (["basis", "--format", "latex"],
     "e01dc19687dd272a2c6cdc0759f95277b5414cf75df147467ef016658584ab29"),
    (["derive", "--format", "text"],
     "190aa1ce9fd31ca241d3e133ead019ae06c3257e04732a5f0ca92de1a8870aab"),
    (["derive", "--format", "json"],
     "9dfe918cb09640ee85fc0a23706bce0730df6efa0870572e68c02e48100f2c56"),
    (["derive", "--format", "latex"],
     "a51e3baa49589fe349ed92b71d65105f3cb174b32bfb760088aeb41b786f5d52"),
    (["derive", "--channel", "8", "--outcome", "8"],
     "b3fe962855b565097cc669e2fe21e2d09733b65ba1dd537e0a50fdd1189c3903"),
    (["compare", "--format", "markdown"],
     "a0b1f9dd504ffa3c6ebe2148f5e808684a4e621cafe8e9f3d40c5ffc4f3cf76a"),
    (["compare", "--format", "json"],
     "a4f1e56eef9f46ee76b3448576b194d6c3e4369e7e561059ac76a28018c2d3ec"),
    (["compare", "--format", "latex"],
     "1adcbf840f6c6ebc2528f53f965e20fc05d27f422b80d9e65f7ec95a4c549b78"),
    (["analyze", "--format", "markdown"],
     "5552f3e42a89eff4df44287684841a9373ddd56f3529e1e53b785e16e645e7cf"),
    (["analyze", "--format", "json"],
     "64eccae3bccdf3dc3d966c671091c59bf888a43730e55c0f5c264cdd16e13676"),
    (["analyze", "--channel", "8", "--format", "json"],
     "f9dab07e8534ad627016ec8b52e93390c144a8385f39854fa2aadc5c1e7584c0"),
    (["derive", "--channel", "3", "--outcome", "5", "--format", "json"],
     "63e342fc386f579b7ffd21e343f591169cdcc8515fbe8c72ff0a523a96128b80"),
    (["derive", "--outcome", "4"],
     "43d1daddc7ff3d766492afa49c751c094aefe446a468f3abb24cdcf13af7f142"),
    (["derive", "--format", "latex", "--outcome", "3"],
     "22ab3da2724a2d67feeeb686cf8178f503db66ba3c1ae379ff9c933d7bf154ce"),
    (["derive", "--channel", "8", "--roman"],
     "c14305440f61223baa0b12ece7a623039f7990bd17c6fc531d7632132db66008"),
    (["derive", "--format", "latex", "--channel", "8", "--roman"],
     "38f7f3b8f69535d8074e644feaf0313652ce3635df2a660cb3e520fb9bda990c"),
    (["derive", "--channel", "0", "--outcome", "0", "--roman"],
     "6760f1e6efe0e6fc8f4e2bae43b18df4a3f36b83936bfbb5384bd69bc5105e02"),
    (["export"],
     "9dfe918cb09640ee85fc0a23706bce0730df6efa0870572e68c02e48100f2c56"),
    (["verify"],
     "c66b8539bb1e82788b395ea99501790e5cd846cd21d74e9903f96848e02281e1"),
]


@pytest.mark.parametrize(
    "argv, digest", GOLDEN, ids=[" ".join(argv) for argv, _ in GOLDEN]
)
def test_stdout_matches_frozen_digest(capsys, argv, digest):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
