"""Workload generators for the paper's evaluation (§5) and Fig. 1 scenario."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".bamm": (
            "DOMAIN_NAMES", "DOMAIN_SIZES", "BammDomain", "BammTask",
            "Concept", "bamm_corpus", "bamm_domain", "domain_concepts",
            "fixed_source",
        ),
        ".flights": (
            "b_to_a_expression", "b_to_c_expression", "flights_a", "flights_b",
            "flights_c", "flights_registry", "total_cost_correspondence",
        ),
        ".semantic_tasks": (
            "PAPER_FUNCTION_COUNTS", "SemanticDomain", "SemanticTask",
            "inventory_domain", "real_estate_domain", "semantic_domains",
        ),
        ".synthetic": (
            "PAPER_SIZES", "MatchingPair", "matching_pair", "matching_pairs",
            "shared_value", "source_attribute", "target_attribute",
        ),
    },
)
