# expect: none
"""Known-good: only the tag of a pre-keyed HMAC leaves; the object stays put."""
from repro.crypto import KeyedHmac, hkdf


class Endpoint:
    def __init__(self, root: bytes, link) -> None:
        self.link = link
        self._hmac = KeyedHmac(hkdf(root, b"record-mac", 32), "sha256")

    def ship(self, ciphertext: bytes) -> None:
        self.link.send(self._hmac.mac(ciphertext) + ciphertext)
