"""Golden outputs: the REAL text of every flow, the generated XMG and PLA
texts and the NEWTON model's every word, pinned by sha256; and the QoR
figures of ROADMAP's baseline at larger widths, pinned exactly.

A change meant to leave circuits alone (a refactor, a speed-up) must keep
every hash and figure.  A change that alters a circuit on purpose updates
the tables below and says why.
"""

import hashlib

import pytest

from conftest import DESIGN_FLOW_IDS, DESIGN_FLOWS, FLOWS
from revflow.arith import Design, DesignSpec, design_truth_table, design_xmg, newton_trace
from revflow.cli import flow_source, run_flow
from revflow.logicnet import esop_from_tt, esop_minimize, write_pla, write_xmg
from revflow.revcirc import cost_report, read_real, write_real

GOLDEN = {
    ("intdiv", "functional-optimum", 4): "52acbe3877532346065fb9ea93a4663eaa04c1aecd7336cc8ab394f6b8255ede",
    ("intdiv", "functional-optimum", 5): "05a9491a1579d30f95b51bc499d5db025982f881afe636ed791188d64a73519a",
    ("intdiv", "functional-optimum", 6): "bdd533a7459cb3e81d4a25546e9efb17200b166d51cd2d4ab066ae2ebf432b6a",
    ("intdiv", "functional-bennett", 4): "becdbd391b666d40282fe761ded314eb7e4f8a95d1a494454631da50202e92c4",
    ("intdiv", "functional-bennett", 5): "d4245c840fa1b3813eaf8ee963398ad892f82d28059cc41cf04fd5f13bb67beb",
    ("intdiv", "functional-bennett", 6): "69dffc29b02ba6c25b1cd1518c11fc8fbc8557554bf227563b5c9f551e309a75",
    ("intdiv", "esop", 4): "de8ed99b7278763699c743bfc19fedacb9b7d42cfdef0293840aa1ebe4d47901",
    ("intdiv", "esop", 5): "95b0981e718652a010026c6568fab7e322fb743acf6620b01fedb3ef83ff0fae",
    ("intdiv", "esop", 6): "6034918006a3fc7cf50ec082aac2867581f2b3ae8a083df505a02d5ad14001ca",
    ("intdiv", "hier-bennett", 4): "c29f15090df63f6a62bda655c3df867d224afd246f0cb16dbebfdaac97275adf",
    ("intdiv", "hier-bennett", 5): "d6f6fe0fc032aa0364f119bc0bd157f4eae447e83dc5cc1edda88918feb93d0f",
    ("intdiv", "hier-bennett", 6): "fe9aaf29bab02951046cf5e989803d78dc8f55dd0f65b751233fc5f59dbd85cd",
    ("intdiv", "hier-inplace_xor", 4): "27776d9a02cef885170db979b876cc8b24ac73b1786c405a59179079e370a85c",
    ("intdiv", "hier-inplace_xor", 5): "318488f616c531d7127f3051ded65d190abdbd99cf7975390280c5667870c0af",
    ("intdiv", "hier-inplace_xor", 6): "66b41ee37115bb8f3885f21bd27c13838a7dfb0282ce48c4d30d90b4aaea90a4",
    ("newton", "hier-bennett", 4): "c2b5c87943083804cc2d0af2bce7dc50970bd198861643e1afc11b3e56a71f29",
    ("newton", "hier-bennett", 5): "2c5a540b3330a62a1b4ed1c6c8b5e9303779f87cd8722f4bf9c1432e76dad078",
    ("newton", "hier-bennett", 6): "6da8a74d2b987c52d6ab5d5fd3c3021fe6a955e2581fac5006a9f091827ca1e6",
    ("newton", "hier-inplace_xor", 4): "6d72592cc6105e1b14e4f3fdee331ad09b2950d0f250631392a44c4d9bcc984f",
    ("newton", "hier-inplace_xor", 5): "ca09242d404ff64bc0868fc4e0e1ae3edba5c1f2e9bb91964c852650e6784390",
    ("newton", "hier-inplace_xor", 6): "943ab1a00960aee8beeef0ad0410d8ffe9867a147aec9c29a1bbc6c359f10ca3",
}


def test_newton_table_is_intdivs():
    # so the functional and esop circuits of NEWTON are INTDIV's, byte for byte
    for n in range(4, 7):
        newton, intdiv = (design_truth_table(DesignSpec(d, n)) for d in (Design.NEWTON, Design.INTDIV))
        assert newton == intdiv, n


@pytest.mark.parametrize("design,flow", DESIGN_FLOWS, ids=DESIGN_FLOW_IDS)
def test_real_output_unchanged(design, flow, tmp_path):
    method, options, _ = FLOWS[flow]
    path = tmp_path / "circuit.real"
    for n in range(4, 7):
        circ = run_flow(method, flow_source(method, DesignSpec(design, n)), **options)
        write_real(circ, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == GOLDEN[design.value, flow, n], n
        assert read_real(path) == circ, n


def test_qor_matches_the_roadmap_baseline():
    """ROADMAP's baseline through run_flow: esop T and cubes (Reed-Muller,
    minimized), hier T and qubits, and the functional flow's gates with the
    optimum embedding; INTDIV unless named."""
    for n, t_count, cubes in ((6, 2_700, (63, 62)), (8, 22_680, (255, 254)), (10, 154_828, (1022, 1021))):
        table = design_truth_table(DesignSpec(Design.INTDIV, n))
        esop = esop_from_tt(table)
        assert (len(esop.cubes), len(esop_minimize(esop).cubes)) == cubes, n
        assert cost_report(run_flow("esop", esop)).t_count == t_count, n
    for n, t_count, qubits in ((6, 1_064, 139), (8, 1_876, 249), (10, 2_912, 391)):
        report = cost_report(run_flow("hier", design_xmg(DesignSpec(Design.INTDIV, n))))
        assert (report.t_count, report.qubits) == (t_count, qubits), n
    for n, qubits in ((6, 4_849), (8, 11_018), (10, 16_755)):
        assert run_flow("hier", design_xmg(DesignSpec(Design.NEWTON, n))).width == qubits, n
    circ = run_flow("functional", flow_source("functional", DesignSpec(Design.INTDIV, 8)))
    assert len(circ.gates) == 235_431


# esop_minimize(esop_from_tt(design_truth_table(DesignSpec(INTDIV, n)))): the
# repr of its (mask, polarity, output_mask) list, past the reference's reach
GOLDEN_MINIMIZED = {
    11: (2_045, "dbbfb4bb769b817651bfbde884e2725ce5b7f82931f545b34c5661a1d1ca6069"),
    12: (4_093, "52ab7790df05625556e0f855925f57e618b88749057436884b720304e1b027db"),
    13: (8_189, "7e85aaf2b668ae48e8f1f1e80256bf3ab1f0e6500f6861c1f705ab3069982b3b"),
}


def test_minimized_cubes_unchanged():
    for n, (count, digest) in GOLDEN_MINIMIZED.items():
        out = esop_minimize(esop_from_tt(design_truth_table(DesignSpec(Design.INTDIV, n))))
        cubes = list(out.cubes)
        assert (len(cubes), hashlib.sha256(repr(cubes).encode()).hexdigest()) == (count, digest), n


# write_xmg(design_xmg(DesignSpec(design, n))): the node numbering and every
# fanin of the generated networks
GOLDEN_XMG = {
    ("intdiv", 4): "0a89960301c62e62e23a1b86c35804df56d5be888a81ca82037ffb40f0855736",
    ("intdiv", 5): "94d2f7da52b6e66c1cd3a15cb3f32dc90c5956573953412a547f03f3a84d08ab",
    ("intdiv", 6): "4fc8a6e46569f523288d5262f884d846730c8acbfeeebfedd614c8bca93f1d57",
    ("intdiv", 7): "272c632230134b7a17f99dfbea78b217dac274b61176ca7066978ce0c8edf8ec",
    ("intdiv", 8): "4f3f4391514357e10a1b090b5047ff8313aad847ae4085ba143ae4e366836c12",
    ("newton", 4): "d4580c70408613ba83d09a26696bfe5d03d41be622f549223947fa73b90d087a",
    ("newton", 5): "a77861c0dd5c027ed3c6ae6c2e9dff4b4513dd3ae0343802bc46a8b34c226366",
    ("newton", 6): "6c71533b1e4dba4826e2dafc6e191bf8883e3113af4ed5836e6addf183d3b43b",
    ("newton", 7): "80cb012af6ac3a4cb540c6ccf529319ca03e9e2128785ab4c84b8d0613322c4a",
    ("newton", 8): "884c07bed49505777b22490c27550aace1262bc41be15809cca373f54b849baa",
}


@pytest.mark.parametrize("design", list(Design), ids=lambda d: d.value)
def test_xmg_output_unchanged(design, tmp_path):
    path = tmp_path / "net.xmg"
    for n in range(4, 9):
        write_xmg(design_xmg(DesignSpec(design, n)), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_XMG[design.value, n], n


# write_pla(esop_from_tt(design_truth_table(DesignSpec(design, n)))): every
# Reed-Muller cube and its text; NEWTON's table is INTDIV's, so are its hashes
GOLDEN_PLA = {
    ("intdiv", 4): "f7227e429e4d7477efe5437a4ec7243eb70f0e4218e668cac5e42dd2f0a305f3",
    ("intdiv", 5): "b7d9953e31b7ad3c06f5d0c23e1f6d9be6171a1d4b6a593b5581e9813fe32224",
    ("intdiv", 6): "2bd0cf107ecc8b00c6f6f36ba0e148a723e4ff3fbe51276f76fdf532cf1bc7ec",
    ("intdiv", 7): "ec26f02ab05f458677ef5702841bb3925424f5f3c21db78f5a2db069ba96aa34",
    ("intdiv", 8): "d550d31f8357fe9b6e47e2af9c6afaade9b650aa0e873a5b056d755b934e7cef",
    ("newton", 4): "f7227e429e4d7477efe5437a4ec7243eb70f0e4218e668cac5e42dd2f0a305f3",
    ("newton", 5): "b7d9953e31b7ad3c06f5d0c23e1f6d9be6171a1d4b6a593b5581e9813fe32224",
    ("newton", 6): "2bd0cf107ecc8b00c6f6f36ba0e148a723e4ff3fbe51276f76fdf532cf1bc7ec",
    ("newton", 7): "ec26f02ab05f458677ef5702841bb3925424f5f3c21db78f5a2db069ba96aa34",
    ("newton", 8): "d550d31f8357fe9b6e47e2af9c6afaade9b650aa0e873a5b056d755b934e7cef",
}


@pytest.mark.parametrize("design", list(Design), ids=lambda d: d.value)
def test_pla_output_unchanged(design, tmp_path):
    path = tmp_path / "table.pla"
    for n in range(4, 9):
        write_pla(esop_from_tt(design_truth_table(DesignSpec(design, n))), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_PLA[design.value, n], n

# newton_trace(DesignSpec(Design.NEWTON, n), x) for every x: the exponent, the
# normalized word, every iterate and the output, all raw integers
GOLDEN_NEWTON_TRACE = {
    2: "b027aa7c7f0eace80b0665669beb0c78b589964017b020622b197cea0cadba7f",
    3: "9d0bc6cf7acfd98c678d1689807eb927d68471a6e21dd9cb1536b7f906b03af7",
    4: "da3063e078c6129776ce91182da761a36e9464041285a08815c63ef69eb7c09c",
    5: "917687361ac1b4c58871c86c0f532dbdc25373415d88770a613164b8fff75751",
    6: "985c6fb873be6bdbc6527710cb7f3a484a13387137e9b447400bc4eb3eadb62f",
    7: "3a9c3dec841f71aadcc18c88d5043aa9e9f93913fb618bb9284c06ea39424d7a",
    8: "e05fd6c286cfb4a97bbb8ee5df9f54d2f135daa6138f18b16419c70138a7fc66",
    9: "b17126297a8db249730429e4c447695d8c6e0882c7fcf60e0768e1afa8abcdef",
    10: "99055819f4c59a80bf2b83caa2d64b4d088c36c66e3c71fbe51843637bae74c9",
}


def test_newton_trace_unchanged():
    for n, want in GOLDEN_NEWTON_TRACE.items():
        spec = DesignSpec(Design.NEWTON, n)
        words = []
        for x in range(1 << n):
            t = newton_trace(spec, x)
            words.append((t.exponent, t.normalized, t.iterates, t.output))
        assert hashlib.sha256(repr(words).encode()).hexdigest() == want, n
