"""Step-wise adaptive search driving the learning rate up on easy data."""

from fedtune import data, models, runner, sched
from fedtune.data import EvalSet
from fedtune.flcore import ClientState, ExperimentWorld, GlobalEvaluator, RoundState, run_round
from fedtune.hpo import AdaptiveSampler, HpConfig, default_search_space
from fedtune.models import ModelSpec

HP_DEFAULTS = {"learning_rate": 1e-5, "weight_decay": 1e-5, "epochs": 1,
               "batch_size": 16, "dropout": 0.1}


def separable_world(seed=0):
    ds = data.gen_synthetic(2, 4, 360, 8.0, seed=seed)
    server_val = EvalSet(ds.features[:40], ds.labels[:40])
    rest = data.Dataset(ds.features[40:], ds.labels[40:])
    shards = data.partition_dirichlet(rest, 3, 1000.0, seed=seed)
    clients = [ClientState(s.client_id, s, sched.LatencyProfile(1.0)) for s in shards]
    spec = ModelSpec("logistic", 4, 2)
    return ExperimentWorld(spec, clients, GlobalEvaluator(server_val, 1),
                           dict(HP_DEFAULTS), base_seed=seed)


def test_adaptive_probes_escape_tiny_learning_rate():
    world = separable_world()
    space = default_search_space()
    sampler = AdaptiveSampler(space, ["learning_rate"], epsilon=0.0, seed=0)
    state = RoundState(1, models.init_weights(world.model_spec, 0), HpConfig(dict(HP_DEFAULTS)))
    accepted = 0
    pending = []
    for _ in range(12):
        new_cfg, _ = runner.run_probe_cycle(state, world.clients, world, 0,
                                            sampler, pending)
        if new_cfg != state.current_hp:
            accepted += 1
            state.current_hp = new_cfg
        if state.current_hp.values["learning_rate"] >= 1e-3:
            break
        state, _ = run_round(state, world.clients, world)
    assert state.current_hp.values["learning_rate"] >= 1e-3
    assert accepted <= 6
