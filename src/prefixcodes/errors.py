"""Exception hierarchy shared by all prefixcodes modules."""


class CodeError(Exception):
    """Base class for all library errors."""


class InvalidSource(CodeError):
    """Source entries violate an invariant (probabilities, symbols, size)."""


class DuplicateSymbol(CodeError):
    """The same symbol appears more than once."""


class PrefixViolation(CodeError):
    """A codeword is a prefix of another codeword."""


class AlphabetMismatch(CodeError):
    """A code, length map or tree is not over the given source (its alphabet
    or weights)."""


class KraftExceeded(CodeError):
    """Requested codeword lengths have Kraft sum greater than 1."""


class UnknownSymbol(CodeError):
    """A symbol is not part of the code or source at hand."""


class InvalidTree(CodeError):
    """A tree shape is malformed or its leaves do not match the alphabet."""


class NotComplete(CodeError):
    """Operation requires a complete code tree (no 1-child nodes)."""


class NotOptimal(CodeError):
    """Operation requires an optimal (minimum expected length) code."""


class NotInternal(CodeError):
    """Decoder state must be an internal tree node."""


class AlphabetTooLarge(CodeError):
    """Brute-force guard: the alphabet exceeds the supported size."""


class CapExceeded(CodeError):
    """An enumeration produced more results than the requested cap."""


class InvalidWitness(CodeError):
    """A monotonicity witness does not certify an actual violation."""


class AncestryViolation(CodeError):
    """Swap endpoints where one node is a descendant of the other."""


class KindViolation(CodeError):
    """Swap endpoints do not satisfy the condition of the swap kind."""


class Truncated(CodeError):
    """A closure search hit its state cap before reaching a decision."""


class SubsetCapExceeded(CodeError):
    """Subset-BFS guard tripped (too many states or visited subsets)."""


class ConsistencyError(CodeError):
    """An internal cross-check between equivalent characterizations failed."""


class ParseError(CodeError):
    """A source or code file could not be parsed."""
