"""The probe plan of a generated config is made once per process and shared
by every gate; no gate's classification may depend on which gates ran
before it."""

import pytest

from ctckit import discontinuity
from ctckit.discontinuity import JUMP_TOL, classify
from ctckit.reference import reference_gate
from ctckit.states import UnitaryGate

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

gates = st.sampled_from([(2, 2), (3, 2), (4, 2)]).flatmap(
    lambda dims: st.permutations(range(dims[0] * dims[1])).map(
        lambda perm: UnitaryGate.from_permutation(*dims, perm)))


@hypothesis.settings(max_examples=12, deadline=None)
@hypothesis.given(gate=gates, others=st.lists(gates, max_size=2),
                  jump_tol=st.sampled_from([JUMP_TOL, 0.3]))
def test_a_witness_does_not_depend_on_the_gates_before_it(gate, others, jump_tol):
    discontinuity._plan.cache_clear()
    cold = classify(gate, jump_tol=jump_tol)
    # At jump_tol 0.3 the reference gate refines twice, so its directions
    # build states at two eps that no plan holds.
    assert classify(reference_gate(), jump_tol=0.3).witness["refinements_used"] == 2
    for other in others:
        classify(other, jump_tol=jump_tol)
    warm = classify(gate, jump_tol=jump_tol)
    assert warm.to_json() == cold.to_json()
    assert warm.witness_digest() == cold.witness_digest()
