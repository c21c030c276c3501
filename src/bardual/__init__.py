"""Exact computational homological algebra at word-length truncation:
dg and curved dg algebras, Maurer-Cartan twisting, bar constructions,
Hochschild algebras, and Morita duality, all over Q or F_p (p odd).
"""

from .fields import GF, QQ
from .linalg import Matrix, eliminate, rank, solve_matrix
from .graded import (Complex, GradedMap, GradedVectorSpace, cohomology,
                     dual, dual_complex, hom, hom_complex,
                     is_quasi_iso, shift, tensor, tensor_complex,
                     truncate_complex)
from .algebras import (CurvedAlgebra, CurvedModule, CurvedMorphism,
                       ModuleMap, Report, ValidationError, acyclic_two_dim,
                       algebra_from_tables, bimodule_envelope, change_basis,
                       compose_curved, dual_regular_module,
                       endomorphism_algebra, free_module, identity_morphism,
                       invert_morphism, opposite, product, regular_bimodule,
                       regular_module, tensor_algebras, validate)
from .twisting import (MCResult, is_mc, mc_residual, twist_algebra,
                       twist_module, untwist_module)
from .bar import (FakeAugmentation, TruncatedTensorAlgebra,
                  augmentation_defects, bar_resolution_module, canonical_mc,
                  fake_augmentation, hochschild_cochains, hochschild_direct,
                  hochschild_via_twist, identity_delta, reduced_bar,
                  trivial_algebra, unreduced_bar)
from .duality import (HomOverEnd, functor_F, functor_F_on_map,
                      functor_G, morita_prime_F,
                      morita_prime_G, prime_counit_iso, prime_unit_iso,
                      right_action_report, right_hochschild_action)
from .morita import (MoritaData, OrdinaryAlgebra, OrdinaryModule,
                     center, classical_F, classical_G, count_simples,
                     decompose_regular_semisimple, ext_oracle,
                     free_resolution, gamma, global_dimension_probe,
                     hom_modules, injective_cogenerator, morita_unit,
                     radical, regular_ordinary, simple_modules)
from .catalog import (BUILTIN_ALGEBRAS, builtin_algebra, builtin_module,
                      default_module_name)
from .cli import ParseError, ScenarioReport, parse_algebra_file, run_scenario
