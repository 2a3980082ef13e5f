from dataclasses import replace

import pytest
from hypothesis import settings

from cas import SystemConfig
from cas.model import noise_var_from_snr

settings.register_profile("cas", deadline=None, max_examples=60)
settings.load_profile("cas")


def reference_system(snr_c_db=10.0, snr_s_db=20.0) -> SystemConfig:
    """Reference configuration: N=10, M_s=M_c=5, T=100, var_eta=0.1, P_T=1."""
    base = SystemConfig(n_tx=10, m_s=5, m_c=5, n_symbols=100,
                        var_eta=0.1, var_s=1.0, var_c=1.0)
    return replace(base,
                   var_s=noise_var_from_snr(snr_s_db, base),
                   var_c=noise_var_from_snr(snr_c_db, base))


@pytest.fixture
def cfg10():
    return reference_system(10.0)
