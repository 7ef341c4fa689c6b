"""Exact-arithmetic engine for twisted charged-fermion modules.

The package classifies, with verifiable certificates, when the module
structure twisted by a rational Laurent series is irreducible, working
entirely over the rationals: a charged free-fermion Fock space, a super
mode algebra acting through the fermions, Schur-polynomial evaluation, a
truncated span-closure engine, and a parallel free-boson realization used
as an independent cross-check.
"""

from .scalars import (
    ChiParseError,
    ChiSeries,
    ell_of,
    format_rational,
    parse_chi,
    parse_rational,
    pole_order,
)
from .fock import (
    FOCK_SPACE,
    MINUS,
    PLUS,
    VACUUM,
    FermionState,
    apply_psi_dmode,
    as_dmode,
    charge,
    enumerate_basis,
    fmt_halfodd,
    parse_state,
    vacuum_vec,
    vec_from_json_obj,
    weight,
)
from .schur import schur_at_minus_chi, schur_rec
from .span import ClosureConfig, Space, SpanBasis, SparseVec, closure, cyclic_probe, joint_kernel
from .superalg import (
    OperatorWord,
    a_module_ops,
    anticommutator_check,
    apply_Gminus,
    apply_Gplus,
    apply_word,
    g_parts,
    gminus_string_on_omega,
    lowering_string,
    omega,
    omega_vec,
    same_species_anticommutator,
    scalar_S,
    scalar_T,
    singular_w,
)
from .classify import (
    DEFAULT_CFG,
    Certificate,
    Check,
    Report,
    Verdict,
    classify,
    decide,
    recorded_cfg,
    verify_certificate,
)
from .weyl import (
    DEFAULT_PROBE_CFG,
    WEYL_SPACE,
    WEYL_VACUUM,
    Evidence,
    WeylAction,
    WeylState,
    WeylVec,
    affine_relation_check,
    enumerate_weyl_basis,
    evidence_agrees,
    wakimoto_ops,
    wakimoto_probe,
    weyl_vacuum_vec,
)

__version__ = "0.1.0"
