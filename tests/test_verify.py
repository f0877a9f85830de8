import hashlib

import pytest

from qpartition import verify

# SHA-256 of "\n".join(render()), which is the suite's stdout, for each suite
# and window; a deliberate change to a suite's output must update its digest
RENDER_DIGESTS = {
    ("appendix", None): "056eb560563524d3adc4797d563a5e406d24265af7ee25b500fca0aa5a9f7c68",
    ("examples", None): "32b9e942391de7c744afb9f4117f109255f9f82ef933077657a98ff5621a01c0",
    ("products", None): "b196bc875c453fb46c29d3f9dfdc4e88237e54fe81477bc7bd481cd030d0e5d5",
    ("forms", None): "384f6be196d2588d3335f112f719146b94c1de6c55801a7ae1010c3c18602774",
    ("corollary", None): "655f125f4e94bd9c4061e2e163844fb2531d1fe6c4a7eb9aa6567b5882b93dcc",
    ("closed-forms", None): "956f9c1ff7778a8c5d88a1503204a493b903ed853a673f2590188ef82b917020",
    ("products", 0): "6c1922d95369b3384af18189952f45bc4468024986045fec251cd99cafe4b5fd",
    ("products", 12): "0bd2dee54080548f38156c47a7fed9ffec64968eb9f74a0a6fb719c9b15c07db",
    ("forms", 0): "41db41c2733dfa3753daca43c814559cdc3ff93437a98b4de84540ff136b6ca2",
    ("forms", 12): "2b41412ce764e3fc6184a60ba001fd915f4546aec2b648bd548a362915fa1774",
    ("corollary", 0): "f9d5246983a7e786c68ca226bb54eb80aadc5f27b720906788c1d67640208705",
    ("corollary", 12): "58c6fe5f9c3428b72b6ac29827b0bdcacd96a99e8df430fe581a3c883784228e",
}


@pytest.mark.parametrize("suite,max_q", sorted(RENDER_DIGESTS, key=str))
def test_suite_output_is_pinned(suite, max_q):
    result = verify.SUITES[suite](max_q)
    digest = hashlib.sha256("\n".join(result.render()).encode()).hexdigest()
    assert (result.ok, digest) == (True, RENDER_DIGESTS[suite, max_q])

