"""Tests for the runtime NaN/Inf numeric sanitizer."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    LazyAdam,
    NumericGuardError,
    Parameter,
    Tensor,
    no_grad,
    sanitizer,
)


@pytest.fixture(autouse=True)
def _sanitizer_off():
    """Every test starts and ends with the sanitizer disabled."""
    sanitizer.disable()
    yield
    sanitizer.disable()


class TestSwitches:
    def test_default_is_disabled(self):
        assert not sanitizer.is_enabled()

    def test_enable_disable(self):
        sanitizer.enable()
        assert sanitizer.is_enabled()
        sanitizer.disable()
        assert not sanitizer.is_enabled()

    def test_guard_restores_previous_state(self):
        with sanitizer.guard():
            assert sanitizer.is_enabled()
        assert not sanitizer.is_enabled()

    def test_guard_false_is_a_no_op_scope(self):
        sanitizer.enable()
        with sanitizer.guard(False):
            # A disabled inner scope never turns an outer guard off.
            assert sanitizer.is_enabled()
        assert sanitizer.is_enabled()

    def test_guard_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with sanitizer.guard():
                raise RuntimeError("boom")
        assert not sanitizer.is_enabled()

    @pytest.mark.parametrize("value,expected", [
        ("1", True), ("true", True), ("ON", True),
        ("0", False), ("", False), ("off", False),
    ])
    def test_env_flag_parsing(self, monkeypatch, value, expected):
        monkeypatch.setenv(sanitizer.ENV_FLAG, value)
        assert sanitizer.env_enabled() is expected

    def test_env_flag_unset(self, monkeypatch):
        monkeypatch.delenv(sanitizer.ENV_FLAG, raising=False)
        assert not sanitizer.env_enabled()


class TestForwardGuard:
    def test_nan_in_forward_names_the_op(self):
        a = Tensor(np.array([1.0, np.nan]), requires_grad=True)
        b = Tensor(np.array([1.0, 1.0]), requires_grad=True)
        with sanitizer.guard():
            with pytest.raises(NumericGuardError) as info:
                _ = a + b
        assert info.value.op == "add"
        assert "NaN" in str(info.value)
        assert info.value.shapes == ((2,), (2,))

    def test_inf_from_overflow_is_caught(self):
        x = Tensor(np.array([1e308]), requires_grad=True)
        with sanitizer.guard(), np.errstate(over="ignore"):
            with pytest.raises(NumericGuardError) as info:
                _ = x * x
        assert info.value.op == "mul"
        assert "Inf" in str(info.value)

    def test_log_of_zero_names_log(self):
        x = Tensor(np.array([0.0]), requires_grad=True)
        with sanitizer.guard(), np.errstate(divide="ignore"):
            with pytest.raises(NumericGuardError) as info:
                _ = x.log()
        assert info.value.op == "log"

    def test_finite_forward_passes_through(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with sanitizer.guard():
            out = (a * a).sum()
            out.backward()
        assert a.grad is not None

    def test_disabled_forward_does_not_raise(self):
        a = Tensor(np.array([np.nan]), requires_grad=True)
        out = a + a
        assert np.isnan(out.data).all()


class TestOptimizerGuard:
    def test_inf_gradient_names_adam_step(self):
        param = Parameter(np.array([1.0, 2.0]))
        param.grad = np.array([np.inf, 0.0])
        opt = Adam([param], lr=0.1)
        with sanitizer.guard():
            with pytest.raises(NumericGuardError) as info:
                opt.step()
        assert info.value.op == "Adam.step"
        assert "Inf" in str(info.value)

    def test_nan_gradient_names_adam_step(self):
        param = Parameter(np.array([1.0]))
        param.grad = np.array([np.nan])
        opt = Adam([param], lr=0.1)
        with sanitizer.guard():
            with pytest.raises(NumericGuardError) as info:
                opt.step()
        assert info.value.op == "Adam.step"

    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_names_lazy_adam_update(self, poison):
        """The row-sparse update guards its input as ``Adam.step`` does,
        and refuses before writing a row."""
        table = np.arange(12.0).reshape(4, 3)
        adam = LazyAdam(table, lr=0.1, name="entities")
        grads = np.ones((2, 3))
        grads[1, 2] = poison
        with sanitizer.guard():
            with pytest.raises(NumericGuardError) as info:
                adam.update(np.array([0, 2]), grads)
        assert info.value.op == "LazyAdam.update"
        assert "'entities'" in str(info.value)
        assert np.array_equal(table, np.arange(12.0).reshape(4, 3))
        assert not adam.step.any()

    def test_finite_step_passes(self):
        param = Parameter(np.array([1.0]))
        param.grad = np.array([0.5])
        opt = Adam([param], lr=0.1)
        with sanitizer.guard():
            opt.step()
        # Adam's bias-corrected first step moves by ~lr * sign(grad).
        assert param.data == pytest.approx(0.9)

    def test_disabled_step_skips_checks(self):
        param = Parameter(np.array([1.0]))
        param.grad = np.array([np.inf])
        with np.errstate(invalid="ignore"):  # inf / inf: unguarded on purpose
            Adam([param], lr=0.1).step()
        assert not np.isfinite(param.data).any()


class TestZeroOverheadWhenDisabled:
    def test_check_op_never_called_when_disabled(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            sanitizer, "check_op", lambda *a, **k: calls.append(a)
        )
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        ((a * a) + a).sum().backward()
        assert calls == []
        with sanitizer.guard():
            _ = a + a
        assert len(calls) == 1

    def test_check_update_never_called_when_disabled(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            sanitizer, "check_update", lambda *a, **k: calls.append(a)
        )
        param = Parameter(np.array([1.0]))
        param.grad = np.array([0.5])
        opt = Adam([param], lr=0.1)
        opt.step()
        assert calls == []
        param.grad = np.array([0.5])
        with sanitizer.guard():
            opt.step()
        assert len(calls) == 2  # grad check + post-update check


class TestTrainerIntegration:
    def _store(self):
        from repro.kg import TripleStore

        return TripleStore([(0, 0, 1), (1, 0, 2), (2, 1, 3), (3, 1, 0)])

    def test_pkgm_trainer_numeric_guard_flag(self):
        from repro.core import PKGM, PKGMConfig
        from repro.core.trainer import PKGMTrainer, TrainerConfig

        model = PKGM(
            4, 2, config=PKGMConfig(dim=4), rng=np.random.default_rng(0)
        )
        with no_grad():
            model.triple_module.entity_embeddings.weight.data[0] = np.nan
        trainer = PKGMTrainer(
            model,
            TrainerConfig(epochs=1, batch_size=4, numeric_guard=True),
        )
        with pytest.raises(NumericGuardError):
            trainer.train(self._store())
        assert not sanitizer.is_enabled()  # guard released after the run

    def test_pkgm_trainer_env_flag(self, monkeypatch):
        from repro.core import PKGM, PKGMConfig
        from repro.core.trainer import PKGMTrainer, TrainerConfig

        monkeypatch.setenv(sanitizer.ENV_FLAG, "1")
        model = PKGM(
            4, 2, config=PKGMConfig(dim=4), rng=np.random.default_rng(0)
        )
        with no_grad():
            model.triple_module.relation_embeddings.weight.data[:] = np.inf
        trainer = PKGMTrainer(model, TrainerConfig(epochs=1, batch_size=4))
        with pytest.raises(NumericGuardError):
            trainer.train(self._store())

    def test_kge_trainer_numeric_guard_flag(self):
        from repro.baselines import TransE
        from repro.baselines.trainer import KGETrainer, KGETrainerConfig

        model = TransE(4, 2, dim=4, rng=np.random.default_rng(0))
        with no_grad():
            model.entities.weight.data[1] = np.inf
        trainer = KGETrainer(
            model, KGETrainerConfig(epochs=1, batch_size=4, numeric_guard=True)
        )
        with pytest.raises(NumericGuardError):
            trainer.train(self._store())

    def test_trainer_without_flag_leaves_guard_off(self):
        from repro.core import PKGM, PKGMConfig
        from repro.core.trainer import PKGMTrainer, TrainerConfig

        model = PKGM(
            4, 2, config=PKGMConfig(dim=4), rng=np.random.default_rng(0)
        )
        trainer = PKGMTrainer(model, TrainerConfig(epochs=1, batch_size=4))
        history = trainer.train(self._store())
        assert len(history.epoch_losses) == 1
        assert not sanitizer.is_enabled()
