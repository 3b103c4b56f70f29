"""Complex semantic functions and correspondence declarations (paper §4)."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".correspondence": (
            "CORRESPONDENCE_ATT", "CORRESPONDENCE_REL", "Correspondence",
            "correspondences_from_tnf", "correspondences_to_tnf_rows",
            "decode_correspondence", "encode_correspondence",
            "is_correspondence_value", "validate_correspondences",
        ),
        ".functions": (
            "FunctionRegistry", "SemanticFunction", "builtin_registry",
            "make_concat", "make_linear", "make_lookup",
        ),
    },
)
