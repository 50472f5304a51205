"""Q-network numerics, DDQN targets, replay, and graph-walking baselines."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from argseek import env
from argseek.agents import ddqn
from argseek.agents.ddqn import (
    Hyperparams,
    ReplayBuffer,
    Transition,
    ddqn_target,
    epsilon_at,
    greedy_action,
    masked_argmax,
    train_ddqn,
)
from argseek.agents.heuristics import (
    STRATEGY_KINDS,
    TraversalState,
    bfs_next,
    dfs_next,
    random_next,
)
from argseek.agents.qnet import (
    AdamState,
    QNetworkParams,
    adam_update,
    copy_params,
    init_qnet,
    load_qnet,
    mlp_forward,
    mlp_forward_batch,
    mlp_gradients,
    save_qnet,
)
from argseek.kb import FactGraph


def mask(n, indices):
    """Boolean legal mask of length n, True at ``indices``."""
    legal = np.zeros(n, dtype=bool)
    legal[list(indices)] = True
    return legal


def loss_of(params, x, actions, targets):
    q = mlp_forward_batch(params, x)
    picked = q[np.arange(len(x)), actions]
    return float(np.mean((picked - targets) ** 2))


def numeric_gradients(params, x, actions, targets, h=1e-5):
    """Central finite differences of the batch loss, parameter by parameter,
    laid out like ``params.flat``."""
    flat = params.flat
    grad = np.zeros_like(flat)
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + h
        up = loss_of(params, x, actions, targets)
        flat[j] = orig - h
        down = loss_of(params, x, actions, targets)
        flat[j] = orig
        grad[j] = (up - down) / (2.0 * h)
    return grad


def net_of(layer_dims, *arrays) -> QNetworkParams:
    """A hand-made net whose parameters are ``arrays`` (W0, b0, W1, b1, ...)."""
    return QNetworkParams(layer_dims, np.concatenate([np.ravel(a) for a in arrays]))


def linear_net(bias: list[float], n_in: int = 2) -> QNetworkParams:
    """Single linear layer with zero weights: Q(s) = bias, for hand cases."""
    return net_of((n_in, len(bias)), np.zeros((len(bias), n_in)), bias)


def model_mutations(base: bytes):
    """A model file truncated, with a line dropped or duplicated, a token
    replaced, or bytes inserted."""
    lines = base.split(b"\n")
    tokens = [m.span() for m in re.finditer(rb"\S+", base)]
    line_index = st.integers(0, len(lines) - 1)
    replacement = st.sampled_from(
        [b"abc", b"nan", b"-inf", b"1e999", b"0", b"-3", b"2.5", b"dims", b""]
    ) | st.binary(max_size=6)
    return st.one_of(
        st.integers(0, len(base)).map(lambda n: base[:n]),
        line_index.map(lambda i: b"\n".join(lines[:i] + lines[i + 1 :])),
        line_index.map(lambda i: b"\n".join(lines[: i + 1] + lines[i:])),
        st.tuples(st.sampled_from(tokens), replacement).map(
            lambda t: base[: t[0][0]] + t[1] + base[t[0][1] :]
        ),
        st.tuples(st.integers(0, len(base)), st.binary(min_size=1, max_size=8)).map(
            lambda t: base[: t[0]] + t[1] + base[t[0] :]
        ),
    )


class TestInitAndShapes:
    def test_init_shapes_and_bounds(self):
        rng = np.random.default_rng(0)
        params = init_qnet((9, 50, 50, 4), rng)
        assert [w.shape for w in params.weights] == [(50, 9), (50, 50), (4, 50)]
        assert [b.shape for b in params.biases] == [(50,), (50,), (4,)]
        for dim, w, b in zip((9, 50, 50), params.weights, params.biases):
            bound = 1.0 / np.sqrt(dim)
            assert np.all(np.abs(w) <= bound)
            assert np.all(np.abs(b) <= bound)

    def test_init_deterministic_per_seed(self):
        a = init_qnet((4, 3), np.random.default_rng(5))
        b = init_qnet((4, 3), np.random.default_rng(5))
        c = init_qnet((4, 3), np.random.default_rng(6))
        assert np.array_equal(a.weights[0], b.weights[0])
        assert not np.array_equal(a.weights[0], c.weights[0])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            QNetworkParams((3,), np.zeros(0))
        with pytest.raises(ValueError):
            QNetworkParams((2, 0), np.zeros(0))
        with pytest.raises(ValueError):
            QNetworkParams((2, 3), np.zeros(8))
        with pytest.raises(ValueError):
            QNetworkParams((2, 3), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            QNetworkParams((2, 3), np.full(9, np.nan))

    def test_weights_and_biases_are_views_into_flat(self, tmp_path):
        params = init_qnet((3, 4, 2), np.random.default_rng(0))
        assert params.flat.dtype == np.float64 and params.flat.shape == (26,)
        params.flat[:] = np.arange(26.0)
        assert np.array_equal(params.weights[0], np.arange(12.0).reshape(4, 3))
        assert np.array_equal(params.biases[0], np.arange(12.0, 16.0))
        assert np.array_equal(params.weights[1], np.arange(16.0, 24.0).reshape(2, 4))
        assert np.array_equal(params.biases[1], [24.0, 25.0])
        params.weights[1][1, 0] = -1.0
        assert params.flat[20] == -1.0
        # The model file lists the values of ``flat`` in order.
        path = tmp_path / "model.txt"
        save_qnet(params, path)
        values = [float(v) for v in path.read_text().splitlines()[1:]]
        assert np.array_equal(values, params.flat)


class TestForward:
    def test_hand_computed_two_layer(self):
        params = net_of(
            (2, 2, 2), np.eye(2), np.zeros(2), [[1.0, 1.0], [1.0, -1.0]], [0.5, -0.5]
        )
        x = np.array([0.3, -0.2])
        h = np.tanh(x)
        expected = np.array([h[0] + h[1] + 0.5, h[0] - h[1] - 0.5])
        assert np.allclose(mlp_forward(params, x), expected, atol=1e-15)

    def test_batch_matches_single(self):
        params = init_qnet((5, 7, 3), np.random.default_rng(1))
        x = np.random.default_rng(2).normal(size=(4, 5))
        batch = mlp_forward_batch(params, x)
        for i in range(4):
            assert np.array_equal(batch[i], mlp_forward(params, x[i]))

    def test_batch_matches_single_on_benchmark_dims(self):
        # The benchmark net on its kind of input: 0/1 fact features and an
        # r_norm column. A plain (B, d) product misses this in the last bits.
        rng = np.random.default_rng(3)
        params = init_qnet((243, 50, 50, 121), rng)
        for _ in range(20):
            x = (rng.random((32, 243)) < 0.3).astype(np.float64)
            x[:, -1] = rng.random(32)
            batch = mlp_forward_batch(params, x)
            for i in range(32):
                assert np.array_equal(batch[i], mlp_forward(params, x[i]))

    def test_input_validation(self):
        params = init_qnet((5, 3), np.random.default_rng(1))
        with pytest.raises(ValueError):
            mlp_forward(params, np.zeros((2, 5)))
        with pytest.raises(ValueError):
            mlp_forward_batch(params, np.zeros((2, 4)))


class TestGradients:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(4):
            params = init_qnet((6, 8, 7, 5), rng)
            x = rng.normal(size=(3, 6))
            actions = rng.integers(0, 5, size=3)
            targets = rng.normal(size=3)
            loss, a = mlp_gradients(params, x, actions, targets)
            assert loss == pytest.approx(loss_of(params, x, actions, targets))
            n = numeric_gradients(params, x, actions, targets)
            assert a.shape == params.flat.shape
            rel = np.abs(a - n) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
            assert rel.max() < 1e-4

    def test_hand_computed_linear_case(self):
        # Identity net: Q(x) = x. One sample, action 1, target 0.
        params = net_of((2, 2), np.eye(2), np.zeros(2))
        loss, grad = mlp_gradients(
            params, np.array([[1.0, 2.0]]), np.array([1]), np.array([0.0])
        )
        assert loss == 4.0
        g = QNetworkParams(params.layer_dims, grad)
        assert np.array_equal(g.weights[0], np.array([[0.0, 0.0], [4.0, 8.0]]))
        assert np.array_equal(g.biases[0], np.array([0.0, 4.0]))

    def test_only_taken_action_gets_error_signal(self):
        params = init_qnet((3, 4), np.random.default_rng(3))
        _, grad = mlp_gradients(
            params, np.array([[1.0, -1.0, 0.5]]), np.array([2]), np.array([1.0])
        )
        g = QNetworkParams(params.layer_dims, grad)
        for row in (0, 1, 3):
            assert np.all(g.weights[0][row] == 0.0)
            assert g.biases[0][row] == 0.0

    def test_batch_validation(self):
        params = init_qnet((2, 2), np.random.default_rng(0))
        with pytest.raises(ValueError):
            mlp_gradients(params, np.zeros((0, 2)), np.array([]), np.array([]))
        with pytest.raises(ValueError):
            mlp_gradients(params, np.zeros((2, 2)), np.array([0]), np.zeros(2))


class TestAdam:
    def test_first_step_hand_values(self):
        params = net_of((1, 1), [[1.0]], [0.0])
        state = AdamState()
        adam_update(params, np.array([2.0, 1.0]), state, 0.1)
        # Bias-corrected moments make the first step lr * g / |g|.
        assert params.weights[0][0, 0] == pytest.approx(0.9, abs=1e-8)
        assert params.biases[0][0] == pytest.approx(-0.1, abs=1e-8)
        assert state.t == 1

    def test_second_step_keeps_unit_scale_on_constant_gradient(self):
        params = net_of((1, 1), [[1.0]], [0.0])
        state = AdamState()
        for _ in range(2):
            adam_update(params, np.array([2.0, 1.0]), state, 0.1)
        assert params.weights[0][0, 0] == pytest.approx(0.8, abs=1e-7)
        assert state.t == 2

    def test_state_is_two_flat_moments_and_a_step_count(self):
        assert [f.name for f in dataclasses.fields(AdamState)] == ["m", "v", "t"]
        params = init_qnet((3, 4, 2), np.random.default_rng(0))
        state = AdamState()
        adam_update(params, np.ones(params.flat.size), state, 0.1)
        assert state.m.shape == state.v.shape == params.flat.shape

    def test_flat_step_equals_per_array_reference(self):
        # The per-array update it replaced, kept as the reference: the
        # arithmetic per element is the same, so the results must be equal.
        rng = np.random.default_rng(4)
        params = init_qnet((5, 6, 3), rng)
        ref = [a.copy() for a in params.weights + params.biases]
        m = [np.zeros_like(a) for a in ref]
        v = [np.zeros_like(a) for a in ref]
        state = AdamState()
        for t in range(1, 6):
            grad = rng.normal(size=params.flat.size)
            g = QNetworkParams(params.layer_dims, grad)
            adam_update(params, grad, state, 1e-2)
            c1, c2 = 1.0 - 0.9**t, 1.0 - 0.999**t
            for i, gi in enumerate(g.weights + g.biases):
                m[i] = 0.9 * m[i] + (1.0 - 0.9) * gi
                v[i] = 0.999 * v[i] + (1.0 - 0.999) * gi**2
                ref[i] -= 1e-2 * (m[i] / c1) / (np.sqrt(v[i] / c2) + 1e-8)
        for a, b in zip(params.weights + params.biases, ref):
            assert np.array_equal(a, b)


class TestSaveLoad:
    def test_round_trip_is_bit_exact(self, tmp_path):
        params = init_qnet((5, 4, 3), np.random.default_rng(9))
        path = tmp_path / "model.txt"
        save_qnet(params, path)
        loaded = load_qnet(path)
        assert loaded.layer_dims == params.layer_dims
        for a, b in zip(params.weights + params.biases, loaded.weights + loaded.biases):
            assert np.array_equal(a, b)
        x = np.random.default_rng(10).normal(size=5)
        assert np.array_equal(mlp_forward(params, x), mlp_forward(loaded, x))

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.5\n0.5\n")
        with pytest.raises(ValueError, match="dims"):
            load_qnet(path)

    def test_truncated_file_rejected(self, tmp_path):
        params = init_qnet((3, 2), np.random.default_rng(0))
        path = tmp_path / "model.txt"
        save_qnet(params, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(ValueError, match="count"):
            load_qnet(path)

    @pytest.mark.parametrize(
        "line, text, where",
        [
            (3, "abc", ":4: not a number"),
            (3, "nan", ":4: non-finite"),
            (3, "-inf", ":4: non-finite"),
            (0, "dims 3 x", ": dims header"),
            (0, "dims 8", ": dims header"),
            (0, "dims 3 0", ": dims header"),
            (0, "dims 3 -2", ": dims header"),
        ],
    )
    def test_malformed_model_names_file_and_line(self, tmp_path, line, text, where):
        path = tmp_path / "model.txt"
        save_qnet(init_qnet((3, 2), np.random.default_rng(0)), path)
        lines = path.read_text().splitlines()
        lines[line] = text
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as info:
            load_qnet(path)
        assert str(info.value).startswith(f"{path}{where}")

    def test_undecodable_byte_names_file_and_line(self, tmp_path):
        path = tmp_path / "model.txt"
        save_qnet(init_qnet((3, 2), np.random.default_rng(0)), path)
        lines = path.read_bytes().split(b"\n")
        lines[4] += b"\xff"
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ValueError) as info:
            load_qnet(path)
        assert str(info.value).startswith(f"{path}:5: not UTF-8")

    @settings(
        derandomize=True,
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_mutated_model_loads_or_names_file(self, tmp_path, data):
        path = tmp_path / "model.txt"
        save_qnet(init_qnet((3, 2), np.random.default_rng(0)), path)
        mutant = data.draw(model_mutations(path.read_bytes()))
        path.write_bytes(mutant)
        try:
            params = load_qnet(path)
        except ValueError as exc:
            assert str(exc).startswith(str(path))
        else:
            header = mutant.decode("utf-8").splitlines()[0].split()[1:]
            assert params.layer_dims == tuple(int(t) for t in header)
            assert np.all(np.isfinite(params.flat))

    def test_copy_params_is_deep(self):
        params = init_qnet((2, 2), np.random.default_rng(0))
        dup = copy_params(params)
        dup.weights[0][0, 0] += 1.0
        assert params.weights[0][0, 0] != dup.weights[0][0, 0]


class TestHyperparams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eps_start": 0.01, "eps_end": 0.1},
            {"gamma": 1.5},
            {"batch_size": 64, "replay_capacity": 32},
            {"target_sync_every": 0},
            {"episodes": 0},
            {"episodes": -1},
        ],
    )
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Hyperparams(**kwargs)

    def test_epsilon_schedule(self):
        hp = Hyperparams()
        assert epsilon_at(hp, 0) == 0.1
        assert epsilon_at(hp, 1000) == pytest.approx(0.055)
        assert epsilon_at(hp, 2000) == 0.01
        assert epsilon_at(hp, 10**6) == 0.01
        values = [epsilon_at(hp, n) for n in range(0, 3000, 50)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_epsilon_with_zero_anneal_window(self):
        hp = Hyperparams(eps_anneal_actions=0)
        assert epsilon_at(hp, 0) == hp.eps_end


def random_masks(rng, count):
    """(q, legal) pairs: sizes 1-130, a third with q rounded to force ties,
    a fifth with exactly one legal action."""
    for k in range(count):
        n = int(rng.integers(1, 131))
        q = rng.normal(size=n)
        if k % 3 == 0:
            q = np.round(q)
        if k % 5 == 0:
            legal = mask(n, [rng.integers(n)])
        else:
            legal = rng.random(n) < rng.uniform(0.05, 1.0)
            legal[rng.integers(n)] = True
        yield q, legal


class TestMaskedArgmax:
    def test_respects_mask(self):
        q = np.array([9.0, 1.0, 5.0])
        assert masked_argmax(q, mask(3, {1, 2})) == 2
        assert masked_argmax(q, mask(3, {1})) == 1
        # Even when every legal Q is -inf, the pick stays legal.
        assert masked_argmax(np.array([-np.inf, -np.inf, 1.0]), mask(3, {1})) == 1

    def test_ties_break_to_lowest_index(self):
        q = np.array([3.0, 3.0, 3.0])
        assert masked_argmax(q, mask(3, {0, 1, 2})) == 0
        assert masked_argmax(q, mask(3, {1, 2})) == 1

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            masked_argmax(np.array([1.0]), mask(1, ()))

    def test_matches_set_reference(self):
        # Reference: the highest-Q index of the legal set, ties to the
        # lowest index, as picked from a set of indices.
        rng = np.random.default_rng(0)
        for q, legal in random_masks(rng, 1500):
            legal_set = frozenset(np.flatnonzero(legal).tolist())
            want = min(legal_set, key=lambda i: (-q[i], i))
            got = masked_argmax(q, legal)
            assert type(got) is int
            assert got == want

    def test_stacked_rows_match_set_reference(self):
        # One call on a stack of rows, a third of them with every legal Q
        # at -inf, picks per row what the set reference picks.
        rng = np.random.default_rng(1)
        for n in (1, 2, 7, 121):
            q = np.round(rng.normal(size=(40, n)))
            legal = rng.random((40, n)) < rng.uniform(0.05, 1.0, size=(40, 1))
            legal[np.arange(40), rng.integers(n, size=40)] = True
            legal[::5] = np.arange(n) == rng.integers(n)
            q[::3] = np.where(legal[::3], -np.inf, q[::3])
            got = masked_argmax(q, legal)
            want = [
                min(np.flatnonzero(m).tolist(), key=lambda i: (-row[i], i))
                for row, m in zip(q, legal)
            ]
            assert got.shape == (40,)
            assert got.tolist() == want

    def test_stacked_rows_with_an_empty_row_rejected(self):
        legal = np.array([[True, False], [False, False]])
        with pytest.raises(ValueError):
            masked_argmax(np.zeros((2, 2)), legal)

    def test_greedy_action_uses_network_output(self):
        params = linear_net([0.0, 5.0, 1.0])
        features = np.zeros(2)
        assert greedy_action(params, features, mask(3, {0, 1, 2})) == 1
        assert greedy_action(params, features, mask(3, {0, 2})) == 2


def reference_ddqn_target(transition, theta, theta_minus, gamma):
    """One row's bootstrap value, computed alone as the trainer once did:
    the oracle for the batched ``ddqn_target``."""
    if transition.done:
        return transition.r
    choices = np.flatnonzero(transition.legal_next)
    if not len(choices):
        raise ValueError("no legal actions to choose from")
    q = mlp_forward(theta, transition.s_next)
    a_star = int(choices[np.argmax(q[choices])])
    q_minus = mlp_forward(theta_minus, transition.s_next)
    return transition.r + gamma * float(q_minus[a_star])


def random_transitions(rng, count, n_in, n_actions):
    """Transitions with rewards on the toy and benchmark scale: a quarter
    terminal (half of those with an empty mask), a fifth with one legal
    action, the rest with random non-empty masks."""
    batch = []
    for k in range(count):
        done = k % 4 == 0
        if done and k % 8 == 0:
            legal = mask(n_actions, ())
        elif k % 5 == 1:
            legal = mask(n_actions, [rng.integers(n_actions)])
        else:
            legal = rng.random(n_actions) < rng.uniform(0.05, 1.0)
            legal[rng.integers(n_actions)] = True
        s_next = (rng.random(n_in) < 0.4).astype(np.float64)
        s_next[-1] = rng.random()
        r = float(rng.choice([-1.0, 99.0, -rng.random()]))
        batch.append(Transition(np.zeros(n_in), 0, r, s_next, done, legal))
    rng.shuffle(batch)
    return batch


def with_tied_actions(params, rng):
    """``params`` with some output units copied from others, so those
    actions' Q-values tie exactly in every state."""
    w, b = params.weights[-1], params.biases[-1]
    for _ in range(len(b) // 2):
        src, dst = rng.integers(len(b), size=2)
        w[dst], b[dst] = w[src], b[src]
    return params


class TestDdqnTarget:
    def test_terminal_target_is_reward(self):
        online = linear_net([1.0, 2.0])
        target = linear_net([3.0, 4.0])
        batch = [
            Transition(
                s=np.zeros(2), a=0, r=r, s_next=np.zeros(2),
                done=True, legal_next=mask(2, ()),
            )
            for r in (-1.0, 99.0, 0.125)
        ]
        assert ddqn_target(batch, online, target, 0.95).tolist() == [-1.0, 99.0, 0.125]

    def test_online_selects_target_scores(self):
        # Online prefers index 2 among the legal {1, 2}; its own global
        # best (index 0) is masked. The synced-copy net values index 2 at
        # 4, so the bootstrap is -1 + 0.95 * 4 regardless of either net's
        # other outputs.
        online = linear_net([9.0, 0.0, 1.0])
        target = linear_net([0.0, 9.0, 4.0])
        t = Transition(
            s=np.zeros(2), a=0, r=-1.0, s_next=np.zeros(2),
            done=False, legal_next=mask(3, {1, 2}),
        )
        y = ddqn_target([t], online, target, 0.95)
        assert y.shape == (1,)
        assert y[0] == pytest.approx(2.8, abs=1e-12)

    def test_nonterminal_without_legal_actions_rejected(self):
        online = linear_net([1.0])

        def row(done, legal):
            return Transition(np.zeros(2), 0, -1.0, np.zeros(2), done, mask(1, legal))

        with pytest.raises(ValueError):
            ddqn_target([row(False, ())], online, online, 0.95)
        with pytest.raises(ValueError):
            ddqn_target([row(True, ()), row(False, [0]), row(False, ())], online, online, 0.95)
        # A terminal row's empty mask is never used.
        assert ddqn_target([row(True, ()), row(False, [0])], online, online, 0.5).tolist() == [
            -1.0, -0.5,
        ]

    @pytest.mark.parametrize("dims", [(7, 5, 6), (7, 9), (243, 50, 50, 121)])
    def test_matches_per_row_reference(self, dims):
        rng = np.random.default_rng(sum(dims))
        for trial in range(20):
            theta = with_tied_actions(init_qnet(dims, rng), rng)
            theta_minus = init_qnet(dims, rng)
            gamma = (0.95, 0.0, 1.0, float(rng.random()))[trial % 4]
            batch = random_transitions(rng, int(rng.integers(1, 40)), dims[0], dims[-1])
            got = ddqn_target(batch, theta, theta_minus, gamma)
            want = [reference_ddqn_target(t, theta, theta_minus, gamma) for t in batch]
            assert got.dtype == np.float64
            assert got.tolist() == want

    def test_rows_with_only_minus_inf_legal_q_values(self):
        # A huge negative weight on the last input drives actions 2-5 to
        # -inf when that input is 10. Rows whose legal set lies in 2-5 then
        # have no legal Q-value above -inf, while the illegal 0 and 1 stay
        # finite: the pick must still be legal, the reference's first legal.
        rng = np.random.default_rng(4)
        n_in, n_actions = 4, 6
        w = rng.normal(size=(n_actions, n_in))
        w[2:, -1] = -1e308
        theta = net_of((n_in, n_actions), w, rng.normal(size=n_actions))
        theta_minus = init_qnet((n_in, n_actions), rng)
        batch = []
        for k in range(60):
            s_next = rng.normal(size=n_in)
            s_next[-1] = 10.0 if k % 2 else 0.5
            legal = rng.random(n_actions) < 0.5
            if k % 3 != 2:
                legal[:2] = False
            legal[rng.integers(2, n_actions)] = True
            batch.append(Transition(np.zeros(n_in), 0, -1.0, s_next, k % 7 == 0, legal))
        with np.errstate(over="ignore"):
            got = ddqn_target(batch, theta, theta_minus, 0.95)
            want = [reference_ddqn_target(t, theta, theta_minus, 0.95) for t in batch]
            q = mlp_forward_batch(theta, np.stack([t.s_next for t in batch]))
        stuck = [
            not t.done and np.all(q[i][t.legal_next] == -np.inf) for i, t in enumerate(batch)
        ]
        assert sum(stuck) >= 10
        assert got.tolist() == want
        assert np.all(np.isfinite(got))

    def test_training_targets_match_reference(self, toy, monkeypatch):
        # Every batch the trainer really draws, checked row by row against
        # the per-row oracle with the networks as they are at that update.
        real_target = ddqn.ddqn_target
        checked = []

        def checking_target(batch, theta, theta_minus, gamma):
            got = real_target(batch, theta, theta_minus, gamma)
            want = [reference_ddqn_target(t, theta, theta_minus, gamma) for t in batch]
            assert got.tolist() == want
            checked.append(len(batch))
            return got

        monkeypatch.setattr(ddqn, "ddqn_target", checking_target)
        hp = Hyperparams(episodes=50, seed=2)
        train_ddqn(toy.scenario, toy.train_kas, hp)
        assert len(checked) > 50
        assert set(checked) == {hp.batch_size}


class TestReplayBuffer:
    def test_ring_overwrites_oldest_first(self):
        buf = ReplayBuffer(3)
        for item in (1, 2, 3, 4, 5):
            buf.push(item)
        assert len(buf) == 3
        assert sorted(buf._items) == [3, 4, 5]

    def test_sample_without_replacement(self):
        buf = ReplayBuffer(10)
        for item in range(6):
            buf.push(item)
        batch = buf.sample(6, np.random.default_rng(0))
        assert sorted(batch) == list(range(6))

    def test_sample_larger_than_contents_rejected(self):
        buf = ReplayBuffer(10)
        buf.push(1)
        with pytest.raises(ValueError):
            buf.sample(2, np.random.default_rng(0))

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            ReplayBuffer(0)


class TestTrainDdqn:
    def test_returns_curve_and_finite_network(self, toy):
        hp = Hyperparams(
            episodes=8, batch_size=4, replay_capacity=64,
            eps_anneal_actions=16, hidden_dims=(8,), seed=3,
        )
        sc = toy.scenario
        params, curve = train_ddqn(sc, toy.train_kas, hp)
        assert params.layer_dims == (sc.feature_dim, 8, sc.n_actions)
        assert curve.shape == (8,)
        assert np.all(np.isfinite(curve))
        # Each reward is at most the success bonus minus one step cost.
        assert np.all(curve <= 99.0)

    def test_training_is_deterministic(self, toy):
        hp = Hyperparams(
            episodes=6, batch_size=4, replay_capacity=64,
            eps_anneal_actions=16, hidden_dims=(8,), seed=11,
        )
        p1, c1 = train_ddqn(toy.scenario, toy.train_kas, hp)
        p2, c2 = train_ddqn(toy.scenario, toy.train_kas, hp)
        assert np.array_equal(c1, c2)
        for a, b in zip(p1.weights + p1.biases, p2.weights + p2.biases):
            assert np.array_equal(a, b)

    def test_one_env_step_per_curve_step(self, toy, monkeypatch):
        # The trainer steps through argseek.env's module attribute, so a
        # wrapper set there sees every step it takes.
        calls = []
        real_step = env.step

        def counting_step(*args, **kwargs):
            calls.append(1)
            return real_step(*args, **kwargs)

        monkeypatch.setattr(env, "step", counting_step)
        hp = Hyperparams(
            episodes=3, batch_size=4, replay_capacity=64,
            eps_anneal_actions=16, hidden_dims=(8,), seed=0,
        )
        _, curve = train_ddqn(toy.scenario, toy.train_kas, hp)
        # Toy rewards: -1 per step, +100 once on success, which needs at
        # most t_limit = 4 steps; so a positive total means success.
        steps = sum(100.0 - c if c > 0 else -c for c in curve)
        assert len(calls) == steps > 0

    def test_empty_pool_rejected(self, toy):
        with pytest.raises(ValueError):
            train_ddqn(toy.scenario, [], Hyperparams(episodes=1))


def diamond_graph():
    """claim c fans out to a and b; a leads on to x, b to y, z is isolated."""
    adjacency = {
        "c": ("a", "b"),
        "a": ("c", "x"),
        "b": ("c", "y"),
        "x": ("a",),
        "y": ("b",),
        "z": (),
    }
    nodes = frozenset(adjacency)
    return FactGraph(nodes, adjacency), ("a", "b", "x", "y", "z")


def walk_order(kind, seed):
    graph, candidates = diamond_graph()
    traversal = TraversalState(candidates)
    next_fn = dfs_next if kind == "dfs" else bfs_next
    rng = np.random.default_rng(seed)
    legal = np.ones(len(candidates), dtype=bool)
    order = []
    while legal.any():
        idx = next_fn(traversal, graph, "c", legal.copy(), rng)
        assert legal[idx]
        legal[idx] = False
        order.append(candidates[idx])
    return order


class TestHeuristics:
    def test_strategy_kinds(self):
        assert STRATEGY_KINDS == ("random", "dfs", "bfs")

    def test_random_next_uniform_coverage(self):
        rng = np.random.default_rng(0)
        seen = {random_next(mask(8, {2, 5, 7}), rng) for _ in range(200)}
        assert seen == {2, 5, 7}

    def test_random_next_empty_rejected(self):
        with pytest.raises(ValueError):
            random_next(mask(3, ()), np.random.default_rng(0))

    def test_random_next_matches_sorted_set_reference(self):
        # Reference: one draw indexing the sorted legal set. Both streams
        # start alike and must stay alike, draw for draw.
        masks = list(random_masks(np.random.default_rng(1), 1500))
        rng, ref_rng = np.random.default_rng(2), np.random.default_rng(2)
        for _, legal in masks:
            legal_set = frozenset(np.flatnonzero(legal).tolist())
            want = sorted(legal_set)[ref_rng.integers(len(legal_set))]
            got = random_next(legal, rng)
            assert type(got) is int
            assert got == want
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("seed", range(20))
    def test_dfs_descends_before_visiting_siblings(self, seed):
        order = walk_order("dfs", seed)
        child = {"a": "x", "b": "y"}
        assert order[0] in ("a", "b")
        assert order[1] == child[order[0]]
        assert set(order[:4]) == {"a", "b", "x", "y"}

    @pytest.mark.parametrize("seed", range(20))
    def test_bfs_exhausts_layer_before_descending(self, seed):
        order = walk_order("bfs", seed)
        assert set(order[:2]) == {"a", "b"}
        assert set(order[2:4]) == {"x", "y"}

    @pytest.mark.parametrize("kind", ["dfs", "bfs"])
    @pytest.mark.parametrize("seed", range(5))
    def test_disconnected_nodes_reached_by_fallback(self, kind, seed):
        order = walk_order(kind, seed)
        assert order[4] == "z"

    def test_traversal_skips_already_asked(self):
        graph, candidates = diamond_graph()
        traversal = TraversalState(candidates)
        rng = np.random.default_rng(1)
        legal = mask(5, {1, 2, 3, 4})  # a (index 0) was already asked
        idx = dfs_next(traversal, graph, "c", legal, rng)
        assert legal[idx]

    @pytest.mark.parametrize("kind", ["dfs", "bfs"])
    def test_empty_legal_rejected(self, kind):
        graph, candidates = diamond_graph()
        traversal = TraversalState(candidates)
        next_fn = dfs_next if kind == "dfs" else bfs_next
        with pytest.raises(ValueError):
            next_fn(traversal, graph, "c", mask(5, ()), np.random.default_rng(0))
