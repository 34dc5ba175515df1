"""Tools for self-similar group actions on finite higher-rank graphs:
path spaces, hypothesis checks, periodicity lattices, the associated
monomial algebra, and KMS equilibrium states."""

from .action import ActionCaps, ActionSystem, GeneratorTable, \
    GroupElement, HypothesisVerdict, check_degenerate_property, \
    check_locally_faithful, check_pseudo_free, restriction_graph, \
    validate_action
from .algebra import AlgebraElement, Monomial, adjoint, element, \
    element_from_json, element_to_json, elements_equal, expectation, \
    generator_unitary, identity_element, monomial, multiply, \
    periodicity_unitary, vertex_projection
from .cli import emit_model, main, parse_model, run_analysis
from .errors import BadRange, BoxClosureViolation, ClosureExceeded, \
    DomainError, IncompleteTriples, NonComposable, NoConvergence, \
    NotBalanced, NotInLattice, NotPeriodic, NotStronglyConnected, \
    ParseError, PreconditionViolated, SSGraphError, SimplexEmpty, \
    SpecViolation, ValidationError, ValidationReport
from .intlattice import hnf_basis, lattice_contains, lattice_coordinates
from .kgraph import Edge, KGraph, Path, validate_kgraph
from .kms import KmsState, TraceSpec, character_trace, evaluate, \
    haar_trace, make_kms_state, mixture_trace, restrict_to_diagonal, \
    simplex_summary, trace_value, verify_kms
from .models import BUILTIN_KATSURA, BUILTIN_ODOMETERS, KatsuraSystem, \
    OdometerSystem, build_katsura, build_odometer, expected_odometer_per, \
    gamma_bijection, odometer_commute, odometer_path, odometer_value
from .periodicity import CyclineCertificate, PeriodicityLattice, \
    cycline_partner, cycline_triples, is_cycline, periodicity_group, \
    sigma_contains
from .perron import PerronData, check_g_invariance, pf_state_value, \
    rho_kernel_lattice, spectral_data

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
