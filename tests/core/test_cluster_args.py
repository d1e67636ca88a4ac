"""A display name where a preset object belongs is a ConfigError that
names the argument and the lookup to use; strings are not coerced."""

import pytest

from repro import MinosCluster
from repro.bench.figures import fig11
from repro.errors import ConfigError


@pytest.mark.parametrize("build, argument", [
    pytest.param(lambda: MinosCluster(model="<Lin, Synch>"), "model",
                 id="model-name"),
    pytest.param(lambda: MinosCluster(model=None), "model",
                 id="model-none"),
    pytest.param(lambda: MinosCluster(config="MINOS-O"), "config",
                 id="config-name"),
    pytest.param(lambda: fig11("smoke", models=("<Lin, Synch>",)), "model",
                 id="fig11-model-name"),
])
def test_wrong_typed_argument_is_a_config_error(build, argument):
    with pytest.raises(ConfigError,
                       match=f"^{argument} must be .*{argument}_by_name"):
        build()
