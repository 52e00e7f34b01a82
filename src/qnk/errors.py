"""Exception types shared across the toolkit."""


class QnkError(Exception):
    """Base class for all toolkit errors."""


# primitives
class DomainMismatch(QnkError):
    pass


class PuncturedPoint(QnkError):
    pass


class LengthTooLarge(QnkError):
    pass


class MessageTooLong(QnkError):
    pass


class NotBinding(QnkError):
    pass


# circuit IR
class MalformedCircuit(QnkError):
    pass


class UnknownGate(QnkError):
    pass


class TargetTooSmall(QnkError):
    pass


# quantum simulator
class TooManyQubits(QnkError):
    pass


class WidthMismatch(QnkError):
    pass


class NotMonotone(QnkError):
    pass


# QFHE mock
class KeyMismatch(QnkError):
    pass


class MalformedCiphertext(QnkError):
    pass


class DepthExceeded(QnkError):
    pass


# CVQC
class JudgeReject(QnkError):
    pass


class MalformedProof(QnkError):
    pass


# null obfuscation / witness encryption
class InsufficientCopies(QnkError):
    pass


class ProofFailed(QnkError):
    pass


# proof systems
class InvalidWitness(QnkError):
    pass


class SetupProofInvalid(QnkError):
    pass


class NoValidNizk(QnkError):
    pass


# attacks
class NoAcceptingProof(QnkError):
    pass


# serialization envelopes
class BadMagic(QnkError):
    pass


class BadDigest(QnkError):
    pass


class VersionMismatch(QnkError):
    pass
