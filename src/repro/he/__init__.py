"""Homomorphic-encryption substrate: RNS/NTT polynomial ring, BFV, RGSW, Subs.

This package implements every HE operation the PIR protocol needs
(Section II of the paper): negacyclic NTT over the special primes, RNS
CRT/iCRT, BFV linear operations, gadget decomposition, RGSW external
products, and automorphism-based substitution with key switching.
"""

from repro.he.batched import BfvCiphertextVec, RnsPolyVec
from repro.he.bfv import BfvCiphertext, BfvContext, SecretKey
from repro.he.gadget import Gadget
from repro.he.modswitch import ModulusSwitcher, SwitchedCiphertext, min_moduli_for_noise
from repro.he.ntt import NttContext
from repro.he.poly import Domain, RingContext, RnsPoly
from repro.he.publickey import PublicKey, encrypt_public
from repro.he.rgsw import RgswCiphertext, cmux, external_product, rgsw_encrypt
from repro.he.rns import RnsBasis
from repro.he.sampling import Sampler
from repro.he.subs import SubsKey, generate_subs_key, substitute

__all__ = [
    "BfvCiphertext",
    "BfvCiphertextVec",
    "BfvContext",
    "Domain",
    "Gadget",
    "ModulusSwitcher",
    "NttContext",
    "PublicKey",
    "RgswCiphertext",
    "RingContext",
    "RnsBasis",
    "RnsPoly",
    "RnsPolyVec",
    "Sampler",
    "SecretKey",
    "SubsKey",
    "SwitchedCiphertext",
    "cmux",
    "encrypt_public",
    "external_product",
    "generate_subs_key",
    "min_moduli_for_noise",
    "rgsw_encrypt",
    "substitute",
]
