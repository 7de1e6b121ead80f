"""Report bytes, pinned: the sha256 of `dirinfo` stdout for eleven commands on
each of the four `docs/models`, for `simulate` at the sizes the benchmark
runs, where the scan carries state over many chunks, for five commands on
`tests/data/unstable_q_2x1`, whose Q != 0 runs Newton's method, and for four
on `tests/data/mimo_p8`, an unstable p = 8 model with Q != 0 whose reports
hold 8 x 8 matrices.  A deliberate change of any report edits this table, and
the edit is recorded with the change."""

import hashlib
import pathlib

import pytest

from dirinfo import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
# model stem -> its directory, else docs/models
DIRS = {"unstable_q_2x1": "tests/data", "mimo_p8": "tests/data"}

# (command line without --model, model file stem, exit code, sha256 of stdout)
DIGESTS = [
    ("check", "memory_order2", 0,
     "99f991e27f37035c42d110deb30ffa74f36f5013eaa412138756c3b888e8e828"),
    ("capacity", "memory_order2", 0,
     "f6056e96011be354b83ac45b8f365d277321b5b0b49ae776655ac7cd69254e63"),
    ("capacity --s 0.3", "memory_order2", 0,
     "f15ac2db8692d506a2ae3d1462b3eec7118ed8ee5a3019fc47f62b7c2b53eaf0"),
    ("nofeedback", "memory_order2", 0,
     "6eee44d6b334ea9771e31e944ad66db9a376b0d9eaeed8de6120ce40877e0e5a"),
    ("ftfi", "memory_order2", 0,
     "fdbdc50c429017608aaac34e7e4f2ae795037b3168f25ca8625d6430eb15b626"),
    ("ftfi --s 0.3", "memory_order2", 0,
     "1ee9ef13e3d9ef7bb60f06d70296ab71ab60812465ae244d5b390b3d38d99f59"),
    ("ftfi --horizon 300", "memory_order2", 0,
     "f759739cd63c878eebe28a17b733fe0ee89dfa0aca94cfdd2adb9c461c241172"),
    ("sweep --param kappa --grid 0.5,2,8", "memory_order2", 0,
     "38feb7c22017e196bcd13ec04ccd8c667327c8a640a40330774c5122d46000db"),
    ("sweep --param kappa --grid 0.5,2,8 --format csv", "memory_order2", 0,
     "e1ccea15c634c5e4f742077d0f7b13c35bb7ad8795c6720e542aeecb5cd8c258"),
    ("simulate --steps 1200 --seeds 2", "memory_order2", 0,
     "4f651c4146c83386cb71d25ee996b25a00f9c2aa367b03229f4a7937e23528b3"),
    ("simulate --steps 1200 --seeds 2 --format csv", "memory_order2", 0,
     "9bf9df189f3d91ad07dd08702786766c98ce197a5a0ad556e558d552a7fc8b95"),
    ("check", "mimo_stable", 0,
     "565d1afad73e838055a88c75cc7fdfda67d36f8026ca576400aa25bde931a7cc"),
    ("capacity", "mimo_stable", 0,
     "79798c06b90ab178fd827c889848b8443f9f33ce1388390b0751accb2977e2a3"),
    ("capacity --s 0.3", "mimo_stable", 0,
     "4e1ec79ffb4f82d0855c1fe650762c2294ef496d892db9eded27d3d10216ee60"),
    ("nofeedback", "mimo_stable", 0,
     "c5de6d14b42c6366c4dcfc2b16242e754d14cdf1f676447fa833e92e9d1267c6"),
    ("ftfi", "mimo_stable", 0,
     "d286853102494541ec10f6eb89e9c9bae031ea39e182e4178e315e7a83662201"),
    ("ftfi --s 0.3", "mimo_stable", 0,
     "bb95f920c3c47aaf5f1b24e89d17840bf9ec2591d61565b4736aa641fbdbf07b"),
    ("ftfi --horizon 300", "mimo_stable", 0,
     "34b2f2965aae80fea08ee3b6a27b1dd76ca899eef6f2cb1704aacd22969a5fd0"),
    ("sweep --param kappa --grid 0.5,2,8", "mimo_stable", 0,
     "6652f4142004d87aaa394a416ba8af901407760837ef3acb13f5284d184b7790"),
    ("sweep --param kappa --grid 0.5,2,8 --format csv", "mimo_stable", 0,
     "d7c4b76984a5ae3eccf2520bda3b9920401d4a49098f2111c53ad4d50ceadf03"),
    ("simulate --steps 1200 --seeds 2", "mimo_stable", 0,
     "21577c576a6de7c5dca7ee5980746b60c06b394dfdf6c934893703962de364f7"),
    ("simulate --steps 1200 --seeds 2 --format csv", "mimo_stable", 0,
     "772617712cb735210dc29d06503313845bc65acf5eabad7b9e9afd60ec7747ef"),
    ("check", "scalar_stable", 0,
     "58cf30a108e23f5d9513cf06e1fd90b47784e5959484fb4a5754ac7efeaee47b"),
    ("capacity", "scalar_stable", 0,
     "ac5758c7b11618128eeb502711bd607816b90dd401fcfae7f69d533e0fa421ee"),
    ("capacity --s 0.3", "scalar_stable", 0,
     "ec670ae90ce47baaacf1e838b390681e4f7dd2d647fd4af721c67344157cc11e"),
    ("nofeedback", "scalar_stable", 0,
     "7dae470c802136850e017d3788e7ec17c499002866f31ea4ba4dc527bd07f962"),
    ("ftfi", "scalar_stable", 0,
     "b7a00d223f616f59f76994b3db40fb10384c7f59d249d0d2d30bb5846443edab"),
    ("ftfi --s 0.3", "scalar_stable", 0,
     "daa725640af4d222143983538e991728c7d2eee20d7dc21504bf4766ca976b15"),
    ("ftfi --horizon 300", "scalar_stable", 0,
     "ea98fb4408306d909e137858e0ca6ab5c8c1cccd1ce280a683b3ee93a6b962c6"),
    ("sweep --param kappa --grid 0.5,2,8", "scalar_stable", 0,
     "7b62bd493030e6c06c73a6394cf8136b6d0fe2824d6240b8c50d0f779746788a"),
    ("sweep --param kappa --grid 0.5,2,8 --format csv", "scalar_stable", 0,
     "e1ccea15c634c5e4f742077d0f7b13c35bb7ad8795c6720e542aeecb5cd8c258"),
    ("simulate --steps 1200 --seeds 2", "scalar_stable", 0,
     "ec35e6100d3a65574fb8f84ccf870ae973e44670d3af2ecb8ee3925afcb56d82"),
    ("simulate --steps 1200 --seeds 2 --format csv", "scalar_stable", 0,
     "8363fc6721178edab8ed64ac9c9fdc848b8c423a74f78a03c6c393fa9688533a"),
    ("check", "scalar_unstable", 0,
     "98282430426325a09d6d1cb44574a4daef004269f8bb809c15687cc3579a02e6"),
    ("capacity", "scalar_unstable", 0,
     "106254a80277d8354816bc1807f1e4fda39f3e51d16daecfe046e6df5807c980"),
    ("capacity --s 0.3", "scalar_unstable", 0,
     "c0d2152d43008d3134aa63592bfe0117ea852f551e1480f339407f1f8796d308"),
    ("nofeedback", "scalar_unstable", 0,
     "b6c77159a037c263d34a8e0b0e405cad27d6fcafc577e230bce521b8bdff0d06"),
    ("ftfi", "scalar_unstable", 0,
     "01794af56107457d7d1a69bce133e924027b2b8b1d7a1c4ab98fe22c55f47aca"),
    ("ftfi --s 0.3", "scalar_unstable", 0,
     "ea460dfb168653a87f04635fdba9de47cb694d976e16ad404c425bbdaf830138"),
    ("ftfi --horizon 300", "scalar_unstable", 0,
     "10a9845e465103b7e117b5b25f7b21aeadbb1b46e0c562c956aa27f81fd48e52"),
    ("sweep --param kappa --grid 0.5,2,8", "scalar_unstable", 0,
     "2261d107629a1800403af0c97bbc0c7be97352acc5eed2ba25fb1d3a011654bf"),
    ("sweep --param kappa --grid 0.5,2,8 --format csv", "scalar_unstable", 0,
     "ffbafb870fc9a7a05a52ec2cf0810f020d35c774f179c96edb9723f40bb86487"),
    ("simulate --steps 1200 --seeds 2", "scalar_unstable", 0,
     "a2cdbc055a198d4e39c9355b808c6417df0a79b5974f2eb66af4e56402ff063d"),
    ("simulate --steps 1200 --seeds 2 --format csv", "scalar_unstable", 0,
     "d314ba68f3028083fe6f9a4511058c5e6d11525aaf8541298311862b1dcbdc2c"),
    ("simulate --steps 24000 --seeds 8", "scalar_unstable", 0,
     "86b9a3ca0201ddfba35a4cd869e7a1566f0382e3420c3602de38a924fbe0e72c"),
    ("simulate --steps 24000 --seeds 8", "mimo_stable", 0,
     "d27ea4b18d082639a3fffb0dbf63b6386ca7e526c4669c692737558dd4b58959"),
    ("simulate --steps 40000 --seeds 2", "memory_order2", 0,
     "94073cd6dd7145f3bbe97c1bd5c7eb06e3d1d7e5c0d8886ca89b305b42ae4b9f"),
    ("capacity", "unstable_q_2x1", 0,
     "7ae413a9b60539baf638535bdadf615bf0a124c3c3f103bdf5ab419c034345fe"),
    ("capacity --s 0.05", "unstable_q_2x1", 0,
     "d120345d098cd78209d57f99bd6f9ec6c9287b9ab562979f9a3065de9a50383c"),
    ("ftfi --horizon 25", "unstable_q_2x1", 0,
     "a92a5be26fafc98d9c0799c895fc06a71851ea1d64255b5c46772cb424f37cea"),
    ("sweep --param kappa --grid 4,6,9", "unstable_q_2x1", 0,
     "acd905a748aeca473a7bb80ba938085ffdd2ff9b4b49180a1ff88c2e0377884b"),
    ("simulate --steps 1200 --seeds 2", "unstable_q_2x1", 0,
     "c9507af749ef78b549b811d52da45971cdea85b2197eb4736a9b0fd3f3875038"),
    ("check", "mimo_p8", 0,
     "9b1fcc9d0bdb5e3604745f009e8a9f39f81131a76b3f210cce9cda53d54fa56c"),
    ("capacity", "mimo_p8", 0,
     "f9a76af6ae469a03843bdc10f4f7daf6d12f8448f55c7098b5ec9faac98482da"),
    ("capacity --s 0.5", "mimo_p8", 0,
     "1edf8881c60253cd9c96f25cc0ba5c4010edf8d98da59079ed8f963840d957c5"),
    ("ftfi --horizon 40", "mimo_p8", 0,
     "3951221866a870f24b80a931c5034304712ff97d4dbbab9e41affcf8bdeacf47"),
]


@pytest.mark.parametrize("command, model, code, digest", DIGESTS,
                         ids=[f"{model}: {command}" for command, model, *_ in DIGESTS])
def test_report_bytes_are_pinned(monkeypatch, capsys, command, model, code, digest):
    monkeypatch.chdir(ROOT)     # the report echoes the model path as given
    path = f"{DIRS.get(model, 'docs/models')}/{model}.json"
    assert cli.main(command.split() + ["--model", path]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
