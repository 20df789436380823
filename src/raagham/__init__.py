"""Artin-graph groups acting by Hamiltonian annulus twists.

Submodules:

* ``graphs`` - simplicial graphs, doubles, orbi-covers, planarity, emulators
* ``words``  - group words, normal forms, the word-problem oracle,
  diagonal/retraction/pullback homomorphisms
* ``twist``  - round annuli and their area heights, closed-form double Dehn
  twists, circle configurations, twist representations
* ``lift``   - Mobius maps, Schottky enumeration and point location,
  corrected Hamiltonians on translated annuli, mollifiers, boundary estimates
* ``flows``  - symplectic integration, relation verification, faithfulness
  probes, the polydisk extension
* ``cli``    - the ``raagham`` command
"""

from .graphs import (
    GraphMorphism,
    NonplanarWitness,
    PlanarEmbedding,
    SimplicialGraph,
    Violation,
    VoltageAssignment,
    certificate_no_emulator,
    check_orbicover,
    complete_graph,
    cycle_graph,
    double,
    double_projection,
    find_planar_emulator,
    incidence_nerve,
    path_graph,
    planarity,
)
from .words import (
    Homomorphism,
    NormalForm,
    Word,
    check_no_cancellation,
    geodesic_length,
    hom_apply,
    hom_diagonal,
    hom_pullback,
    hom_retraction,
    normal_form,
    oracle_equal,
    word_from_tokens,
)
from .twist import (
    Configuration,
    PlaneMap,
    Representation,
    RoundAnnulus,
    TwistProfile,
    build_configuration,
    build_representation,
    double_dehn_twist,
    make_profile,
    twist_hamiltonian,
)
from .lift import (
    AssembledHamiltonian,
    CorrectedHamiltonian,
    GroupElement,
    MobiusMap,
    Mollifier,
    TransportChart,
    analytic_report,
    assemble_Hv,
    enumerate_group,
    lambda_scale,
    schottky_pair,
    smooth_Hv,
)
from .flows import (
    FlowResult,
    HamiltonianField,
    faithfulness_probe,
    flow_map,
    jacobian_probe,
    polydisk_extend,
    rep_apply,
    verify_relations,
)

__version__ = "0.1.0"
