"""Reference implementation of the Bell-decomposition table, one input at a time.

The library teleports one Choi state, the input slot entangled with a
reference mode R, per Bell bra and reads every input from it.  This
reference takes the route before it: per input, the product of that input
and the channel, one beam splitter and one contraction per Bell bra, and
one trace distance per supported outcome.  The library's table must match
it to rounding.
"""

from __future__ import annotations

import math

from hybrid_teleport.encoding import (
    _SUPPORTED_COMBOS,
    DynamicBasis,
    _partial_inner,
    apply_correction,
    coherent_mode,
    ideal_channel,
    input_state,
    photonic_bell,
    photonic_modes,
    protocol_layout,
)
from hybrid_teleport.engine import (
    COHERENT_ALGEBRA,
    Contraction,
    apply_beam_splitter,
    trace_distance,
)
from hybrid_teleport.loss import LossParameter
from hybrid_teleport.measurement import MeasurementFamily, ProjectorSpec, projector


def bell_details(hybrid, alpha, angles, backend=COHERENT_ALGEBRA) -> dict:
    """Per Bell-pair combination: (probability, corrected-state deviation).

    Expands the lossless product of input and channel, removes the
    single-photon-part Bell component with an exact bra, runs the coherent
    pair through the beam splitter, and projects onto the detection sector
    that tags each coherent Bell state.  The deviation is None for a
    combination outside the decomposition or of probability below 1e-14.
    """
    basis = DynamicBasis(alpha, LossParameter(0.0))
    lay = protocol_layout(hybrid, alpha)
    phi_in = input_state(hybrid, angles, basis, "a", coh_scale=math.sqrt(2.0))
    total = phi_in.tensor(ideal_channel(hybrid, alpha))
    assert total.layout.names == lay.names

    bob_modes = photonic_modes(hybrid, "c") + (coherent_mode("c"),)
    target = input_state(hybrid, angles, basis, "c").dm()

    out = {}
    bells = [(kind, sign) for kind in ("phi", "psi") for sign in (1, -1)]
    bras = [photonic_bell(hybrid, kind, sign, lay) for kind, sign in bells]
    for (kind, sign), reduced in zip(bells, _partial_inner(bras, total, backend)):
        split = apply_beam_splitter(reduced, "A", "B").canonicalized()
        contraction = Contraction(split, split, bob_modes, backend)
        specs = [ProjectorSpec(MeasurementFamily.B_ALPHA, o) for o in "1234"]
        probs, weights = contraction.weights([projector(spec) for spec in specs])
        for spec, p, w in zip(specs, probs[:, 0], weights[:, 0]):
            bob = contraction.operator(w)
            prob = float(p.real)
            combo = (kind, sign, "o" + spec.outcome)
            pauli = _SUPPORTED_COMBOS.get(combo)
            if pauli is None or prob < 1e-14:
                out[combo] = (prob, None)
                continue
            corrected = apply_correction(bob, hybrid, pauli, "c")
            out[combo] = (prob, trace_distance(corrected.scaled(1.0 / prob), target, backend))
    return out
