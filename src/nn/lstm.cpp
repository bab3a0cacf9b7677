#include "nn/lstm.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/vmath.hpp"
#include "tensor/workspace.hpp"

namespace fedbiad::nn {

LstmLayer::LstmLayer(ParameterStore& store, const std::string& name_prefix,
                     std::size_t in, std::size_t hidden)
    : in_(in), hidden_(hidden) {
  group_ = store.add_group(name_prefix + ".unit", GroupKind::kRecurrentUnit,
                          hidden, row_len(), /*droppable=*/true);
}

void LstmLayer::init(ParameterStore& store, tensor::Rng& rng) const {
  const float k = 1.0F / std::sqrt(static_cast<float>(hidden_));
  auto w = store.group_params(group_);
  for (std::size_t j = 0; j < hidden_; ++j) {
    float* row = w.data() + j * row_len();
    for (std::size_t i = 0; i < row_len(); ++i) {
      row[i] = static_cast<float>(rng.uniform(-k, k));
    }
    for (std::size_t gate = 0; gate < 4; ++gate) {
      // Forget-gate bias of 1 is the standard trick for stable early
      // training; other biases start at 0.
      row[wx_offset(gate) + in_] = gate == 1 ? 1.0F : 0.0F;
    }
  }
}

namespace {

/// Element offsets, inside the unit-row group, of the kept units' gate
/// blocks in gate-major order: entry gate·U + j addresses unit units[j]'s
/// gate block at `gate_offset(gate)`. Concatenating the four gates turns
/// the per-gate GEMMs into one GEMM of width 4·U with the same per-element
/// sums.
template <typename GateOffset>
std::size_t* gate_rows(Units units, std::size_t stride,
                       GateOffset&& gate_offset) {
  auto rows = tensor::Workspace::local().alloc<std::size_t>(4 * units.n);
  for (std::size_t gate = 0; gate < 4; ++gate) {
    for (std::size_t j = 0; j < units.n; ++j) {
      rows[gate * units.n + j] = units[j] * stride + gate_offset(gate);
    }
  }
  return rows.data();
}

}  // namespace

// GEMM formulation: gate pre-activations are z = x·Wxᵀ + b + h_prev·Whᵀ.
// The input term doesn't depend on the recurrence, so it is computed for
// the WHOLE sequence in one GEMM over all four gates (the Wx gate blocks of
// the kept unit rows are gathered while B is packed); only the h_prev·Whᵀ
// term and the elementwise gate math run per timestep. cache.gates holds
// pre-activations while the GEMMs accumulate, then is activated in place —
// backward sees the same post-activation layout as always.
void LstmLayer::forward(const ParameterStore& store,
                        const tensor::Matrix& x_seq, std::size_t batch,
                        std::size_t seq, Cache& cache, Units in,
                        Units units) const {
  FEDBIAD_CHECK(x_seq.rows() == batch * seq && x_seq.cols() == in.n,
                "lstm forward: input shape mismatch");
  const std::size_t H = hidden_;
  const std::size_t U = units.n;
  const std::size_t rows = batch * seq;
  cache.batch = batch;
  cache.seq = seq;
  cache.gates.resize(rows, 4 * U);
  cache.c.resize(rows, U);
  cache.tanh_c.resize(rows, U);
  cache.h.resize(rows, U);

  const float* w = store.group_params(group_).data();
  const std::size_t stride = row_len();
  tensor::Workspace::Scope scope;
  auto& ws = tensor::Workspace::local();
  const std::size_t* wx_rows =
      gate_rows(units, stride, [this](std::size_t g) { return wx_offset(g); });
  const std::size_t* wh_rows =
      gate_rows(units, stride, [this](std::size_t g) { return wh_offset(g); });

  tensor::gemm_abt(rows, 4 * U, in.n, x_seq.data(), in.n, w, stride,
                   cache.gates.data(), 4 * U, /*accumulate=*/false,
                   /*bias=*/w + in_, /*ldbias=*/stride, {wx_rows, in.idx});

  // The Wh panel (4·U kept gate rows × U kept columns) is invariant across
  // timesteps — pack it once instead of once per timestep.
  float* wh_packed = nullptr;
  if (seq > 1) {
    wh_packed = ws.alloc<float>(tensor::gemm_packed_size(4 * U, U)).data();
    tensor::gemm_pack_bt(4 * U, U, w, stride, wh_packed, {wh_rows, units.idx});
  }

  // A sub-model runs the cell at full width H over a buffer whose dropped
  // units are zero, so every kept unit lands on the same vector/tail lane
  // of vmath::lstm_cell as in the full layer (the two lanes round
  // differently). Dropped units then compute exactly the full layer's
  // values: c = σ(0)·0 + σ(0)·tanh(0) = +0, which is the next c_prev.
  const bool sub = U < H;
  float* g_full = nullptr;
  float* c_full[2] = {};
  float* tc_full = nullptr;
  float* h_full = nullptr;
  if (sub) {
    g_full = ws.alloc<float>(batch * 4 * H).data();
    c_full[0] = ws.alloc<float>(batch * H).data();
    c_full[1] = ws.alloc<float>(batch * H).data();
    tc_full = ws.alloc<float>(batch * H).data();
    h_full = ws.alloc<float>(batch * H).data();
  }

  for (std::size_t t = 0; t < seq; ++t) {
    float* gates_t = cache.gates.data() + t * batch * 4 * U;
    if (t > 0) {
      const float* h_prev = cache.h.data() + (t - 1) * batch * U;
      tensor::gemm_abt_packed(batch, 4 * U, U, h_prev, U, wh_packed, gates_t,
                              4 * U, /*accumulate=*/true);
    }
    const float* c_prev =
        t == 0 ? nullptr : cache.c.data() + (t - 1) * batch * U;
    // Fused gate activation: one vmath::lstm_cell pass per sample replaces
    // the five scalar libm calls per hidden unit.
    parallel::parallel_for(
        batch,
        [&, gates_t, c_prev, t](std::size_t b0, std::size_t b1) {
          for (std::size_t b = b0; b < b1; ++b) {
            float* g4 = gates_t + b * 4 * U;
            float* cb = cache.c.data() + (t * batch + b) * U;
            float* tcb = cache.tanh_c.data() + (t * batch + b) * U;
            float* hb = cache.h.data() + (t * batch + b) * U;
            if (!sub) {
              const float* cpb = c_prev == nullptr ? nullptr : c_prev + b * U;
              tensor::vmath::lstm_cell(U, g4, cpb, cb, tcb, hb);
              continue;
            }
            float* gf = g_full + b * 4 * H;
            float* cf = c_full[t % 2] + b * H;
            const float* cpf =
                t == 0 ? nullptr : c_full[(t + 1) % 2] + b * H;
            std::fill(gf, gf + 4 * H, 0.0F);
            for (std::size_t gate = 0; gate < 4; ++gate) {
              for (std::size_t j = 0; j < U; ++j) {
                gf[gate * H + units[j]] = g4[gate * U + j];
              }
            }
            tensor::vmath::lstm_cell(H, gf, cpf, cf, tc_full + b * H,
                                     h_full + b * H);
            for (std::size_t gate = 0; gate < 4; ++gate) {
              for (std::size_t j = 0; j < U; ++j) {
                g4[gate * U + j] = gf[gate * H + units[j]];
              }
            }
            for (std::size_t j = 0; j < U; ++j) {
              cb[j] = cf[units[j]];
              tcb[j] = tc_full[b * H + units[j]];
              hb[j] = h_full[b * H + units[j]];
            }
          }
        },
        16 * H);
  }
}

// BPTT as GEMMs: the time loop only does the elementwise gate derivatives
// and the dh recurrence (one small GEMM over the four gates); the expensive
// weight and input gradients are batched over the whole sequence
// afterwards — dWx += dzᵀ·x and dWh += dz[1:]ᵀ·h[:-1] accumulate into the
// kept unit rows through gemm_atb's scattered C, so no per-lane dw_local
// reduction buffers exist. All temporaries come from the per-thread
// Workspace: steady-state training allocates nothing.
void LstmLayer::backward(ParameterStore& store, const tensor::Matrix& x_seq,
                         const Cache& cache, const tensor::Matrix& g_h,
                         tensor::Matrix& g_x, Units in, Units units) const {
  const std::size_t batch = cache.batch;
  const std::size_t seq = cache.seq;
  const std::size_t U = units.n;
  const std::size_t rows = batch * seq;
  FEDBIAD_CHECK(g_h.rows() == rows && g_h.cols() == U,
                "lstm backward: g_h shape mismatch");
  FEDBIAD_CHECK(x_seq.rows() == rows && x_seq.cols() == in.n,
                "lstm backward: input shape mismatch");
  g_x.resize(rows, in.n);

  const float* w = store.group_params(group_).data();
  float* dw = store.group_grads(group_).data();
  const std::size_t stride = row_len();

  tensor::Workspace::Scope scope;
  auto& ws = tensor::Workspace::local();
  const std::size_t* wx_rows =
      gate_rows(units, stride, [this](std::size_t g) { return wx_offset(g); });
  const std::size_t* wh_rows =
      gate_rows(units, stride, [this](std::size_t g) { return wh_offset(g); });
  float* dz = ws.alloc<float>(rows * 4 * U).data();
  float* dh = ws.alloc_zero<float>(batch * U).data();
  float* dc = ws.alloc_zero<float>(batch * U).data();

  // Wh is reused by the dh recurrence at every timestep; pack once.
  float* wh_packed = nullptr;
  if (seq > 1) {
    wh_packed = ws.alloc<float>(tensor::gemm_packed_size(U, 4 * U)).data();
    tensor::gemm_pack_b(U, 4 * U, w, stride, wh_packed, {wh_rows, units.idx});
  }

  for (std::size_t t = seq; t-- > 0;) {
    float* dz_t = dz + t * batch * 4 * U;
    const float* c_prev =
        t == 0 ? nullptr : cache.c.data() + (t - 1) * batch * U;
    parallel::parallel_for(
        batch,
        [&, dz_t, c_prev, t](std::size_t b0, std::size_t b1) {
          for (std::size_t b = b0; b < b1; ++b) {
            const std::size_t idx = t * batch + b;
            const float* gates = cache.gates.data() + idx * 4 * U;
            const float* tc = cache.tanh_c.data() + idx * U;
            const float* gh = g_h.data() + idx * U;
            const float* cpb = c_prev == nullptr ? nullptr : c_prev + b * U;
            float* dhb = dh + b * U;
            float* dcb = dc + b * U;
            float* dzb = dz_t + b * 4 * U;
            for (std::size_t j = 0; j < U; ++j) {
              const float gi = gates[j];
              const float gf = gates[U + j];
              const float gg = gates[2 * U + j];
              const float go = gates[3 * U + j];
              const float dh_total = dhb[j] + gh[j];
              const float dct =
                  dcb[j] + dh_total * go * (1.0F - tc[j] * tc[j]);
              const float c_in = cpb == nullptr ? 0.0F : cpb[j];
              dzb[j] = dct * gg * gi * (1.0F - gi);                 // d pre-i
              dzb[U + j] = dct * c_in * gf * (1.0F - gf);           // d pre-f
              dzb[2 * U + j] = dct * gi * (1.0F - gg * gg);         // d pre-g
              dzb[3 * U + j] = dh_total * tc[j] * go * (1.0F - go); // d pre-o
              dcb[j] = dct * gf;
            }
          }
        },
        32 * U);
    if (t > 0) {
      // dh_{t-1} = Σ_gates dz_t[:, gate] · Wh_gate, gate-major over K.
      tensor::gemm_ab_packed(batch, U, 4 * U, dz_t, 4 * U, wh_packed, dh, U);
    }
  }

  // Bias gradient: column sums of dz into the kept unit rows' bias slots.
  tensor::add_column_sums(rows, 4 * U, dz, 4 * U, dw + in_, stride, wx_rows);
  // dWx += dzᵀ · x over the whole sequence.
  tensor::gemm_atb(4 * U, in.n, rows, dz, 4 * U, x_seq.data(), in.n, dw,
                   stride, {wx_rows, in.idx});
  // dWh += dz[1:]ᵀ · h[:-1] — time-major layout makes the shifted product a
  // single contiguous GEMM over (seq-1)·batch rows.
  if (seq > 1) {
    tensor::gemm_atb(4 * U, U, (seq - 1) * batch, dz + batch * 4 * U, 4 * U,
                     cache.h.data(), U, dw, stride, {wh_rows, units.idx});
  }
  // g_x = Σ_gates dz[:, gate] · Wx_gate.
  tensor::gemm_ab(rows, in.n, 4 * U, dz, 4 * U, w, stride, g_x.data(), in.n,
                  /*accumulate=*/false, {wx_rows, in.idx});
}

}  // namespace fedbiad::nn
