"""gtrans: a rule-driven two-phase translator.

Source text is interpreted twice.  The first pass executes `#` control
directives and expands user-defined pattern classes, producing a flat
intermediate stream of tokens.  The second pass executes `@` directives
over that stream once, emits a byte image, and patches the values that
name labels defined later when the run ends.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
