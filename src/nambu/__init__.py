"""Exact symbolic engine for Nambu-Poisson structures on a polynomial chart.

Everything is computed over sparse multivariate polynomials with rational
coefficients, so every identity this package certifies is an exact
polynomial identity, not a numerical approximation.
"""

from .errors import (
    ArityError,
    ChartMismatchError,
    DegreeError,
    NambuError,
    OrderError,
    ParseError,
)
from .poly import Polynomial, Rational, format_polynomial, jet_monomials, parse_polynomial
from .exterior import (
    Form,
    Multivector,
    apply_vec,
    contract_form,
    contract_vec,
    differential,
    ext_d,
    lie_form,
    lie_mv,
    pair,
    wedge,
)
from .structure import (
    CheckReport,
    Counterexample,
    JetBasis,
    NambuStructure,
    PluckerVerdict,
    check_fundamental_identity,
    check_invariance,
    fi_residual,
    hamiltonian,
    invariance_defect,
    nbracket,
    plucker_at,
    sharp,
)
from .algebroid import (
    FormalWedge,
    fbracket_prime,
    lbracket,
    phi,
    skew_defect,
    verify_anchor_morphism,
    verify_characterization,
    verify_leibniz_identity,
    verify_phi_morphism,
    verify_sharp_d_identity,
)
from .cohomology import (
    VolumeForm,
    WitnessReport,
    cobound0,
    cobound1_eval,
    divergence,
    exactness_witness,
    modular_multivector,
    verify_lsv,
    verify_modular_cocycle,
    verify_volume_change,
    volume_structure,
)
from .textio import (
    StructureFile,
    format_tensor,
    load_structure_dict,
    load_structure_file,
    parse_form,
    parse_multivector,
)

__version__ = "0.1.0"
