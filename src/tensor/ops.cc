#include "tensor/ops.h"

#include <cmath>
#include <cstring>

#include "tensor/kernels.h"

namespace rotom {
namespace ops {

using internal_autograd::MakeNode;
using internal_autograd::VariableImpl;

// The autograd op layer: each op validates shapes, builds one graph node,
// and delegates every dense loop — GEMMs, row softmax/layernorm, elementwise
// maps — to the raw kernel layer in tensor/kernels.h, which owns tiling and
// threading. Nothing in this file iterates over matrix elements itself;
// only cheap per-row bookkeeping (labels, sampling) stays here.

namespace {

using ImplPtr = std::shared_ptr<VariableImpl>;

bool SameShape(const Variable& a, const Variable& b) {
  return a.value().shape() == b.value().shape();
}

// True if `suffix` equals the trailing dims of `shape`.
bool IsSuffixShape(const std::vector<int64_t>& shape,
                   const std::vector<int64_t>& suffix) {
  if (suffix.size() > shape.size()) return false;
  const size_t off = shape.size() - suffix.size();
  for (size_t i = 0; i < suffix.size(); ++i)
    if (shape[off + i] != suffix[i]) return false;
  return true;
}

// Common shape plumbing for MatMul / MatMulBT. `b_rows`/`b_cols` are the
// extents of b's last two dims as used by the product.
struct MatMulShapes {
  int64_t batch = 1;
  int64_t m = 0, k = 0, n = 0;
  bool shared_b = false;  // b is 2-D and reused across the batch
};

MatMulShapes ResolveMatMulShapes(const std::vector<int64_t>& as,
                                 const std::vector<int64_t>& bs,
                                 bool b_transposed) {
  ROTOM_CHECK_GE(as.size(), 2u);
  ROTOM_CHECK_GE(bs.size(), 2u);
  MatMulShapes s;
  s.m = as[as.size() - 2];
  s.k = as[as.size() - 1];
  const int64_t b_inner = b_transposed ? bs[bs.size() - 1] : bs[bs.size() - 2];
  s.n = b_transposed ? bs[bs.size() - 2] : bs[bs.size() - 1];
  ROTOM_CHECK_MSG(s.k == b_inner, "MatMul: inner dims differ");
  for (size_t d = 0; d + 2 < as.size(); ++d) s.batch *= as[d];
  s.shared_b = bs.size() == 2 && as.size() > 2;
  if (!s.shared_b) {
    ROTOM_CHECK_MSG(as.size() == bs.size(), "MatMul: incompatible ranks");
    for (size_t d = 0; d + 2 < as.size(); ++d) ROTOM_CHECK_EQ(as[d], bs[d]);
  }
  return s;
}

std::vector<int64_t> MatMulOutShape(const std::vector<int64_t>& as, int64_t m,
                                    int64_t n) {
  std::vector<int64_t> out_shape(as.begin(), as.end() - 2);
  out_shape.push_back(m);
  out_shape.push_back(n);
  return out_shape;
}

// Where a backward kernel puts its result in `p`'s gradient. A gradient that
// does not exist yet is acquired without the zero fill and written (kWrite
// gives the bits a zeroed buffer plus += would); an existing one is
// accumulated into. Leaves included: their sums still start at +0.
struct GradTarget {
  float* data;
  kernels::OutputMode mode;
};

GradTarget GradOut(VariableImpl& p) {
  if (p.grad.defined()) {
    return {p.grad.data(), kernels::OutputMode::kAccumulate};
  }
  p.grad = Tensor::Uninitialized(p.value.shape());
  return {p.grad.data(), kernels::OutputMode::kWrite};
}

// Passes `g` through to `p`'s gradient unchanged. An interior node with no
// gradient yet takes `g` itself — no new buffer, no copy — and from then on
// the buffer is `p`'s: `p`'s other consumers accumulate into it. Pass
// `may_take` false when the op itself will still add into `p`'s gradient
// while reading `g` (both operands are one node). A leaf keeps its
// zero-filled gradient, so its sum starts at +0 (DESIGN.md §7, "Who writes
// a buffer first").
void PassGrad(VariableImpl& p, const Tensor& g, bool may_take = true) {
  if (may_take && !p.grad.defined() && p.backward_fn) {
    p.grad = g;
    return;
  }
  p.MutableGrad().AddInPlace(g);
}

}  // namespace

Tensor SoftmaxRows(const Tensor& logits) {
  const int64_t c = logits.size(-1);
  const int64_t rows = logits.size() / c;
  Tensor out = Tensor::Uninitialized(logits.shape());
  kernels::SoftmaxRows(logits.data(), out.data(), rows, c);
  return out;
}

Tensor TransposeCopy(const Tensor& in, int64_t d0, int64_t d1) {
  const int64_t nd = in.dim();
  if (d0 < 0) d0 += nd;
  if (d1 < 0) d1 += nd;
  ROTOM_CHECK_GE(d0, 0);
  ROTOM_CHECK_LT(d0, nd);
  ROTOM_CHECK_GE(d1, 0);
  ROTOM_CHECK_LT(d1, nd);
  if (d0 == d1) return in.Clone();
  if (d0 > d1) std::swap(d0, d1);

  std::vector<int64_t> out_shape = in.shape();
  std::swap(out_shape[d0], out_shape[d1]);

  // Decompose the index space as [outer, I, mid, J, inner] where I and J are
  // the swapped dimensions.
  int64_t outer = 1, mid = 1, inner = 1;
  for (int64_t d = 0; d < d0; ++d) outer *= in.size(d);
  for (int64_t d = d0 + 1; d < d1; ++d) mid *= in.size(d);
  for (int64_t d = d1 + 1; d < nd; ++d) inner *= in.size(d);
  const int64_t di = in.size(d0);
  const int64_t dj = in.size(d1);

  Tensor out = Tensor::Uninitialized(out_shape);
  const float* src = in.data();
  float* dst = out.data();
  // One "row" per (outer, i, mid) triple; each copies dj*inner elements.
  kernels::ParallelRows(outer * di * mid, dj * inner, [&](int64_t r) {
    const int64_t m = r % mid;
    const int64_t i = (r / mid) % di;
    const int64_t o = r / (mid * di);
    for (int64_t j = 0; j < dj; ++j) {
      const float* s = src + (((o * di + i) * mid + m) * dj + j) * inner;
      float* t = dst + (((o * dj + j) * mid + m) * di + i) * inner;
      std::memcpy(t, s, sizeof(float) * inner);
    }
  });
  return out;
}

Variable Add(const Variable& a, const Variable& b) {
  const auto& as = a.value().shape();
  const auto& bs = b.value().shape();
  ROTOM_CHECK_MSG(IsSuffixShape(as, bs), "Add: b must match a's trailing dims");
  Tensor out = Tensor::Uninitialized(as);
  const int64_t nb = b.value().size();
  const int64_t reps = out.size() / nb;
  kernels::BroadcastAddRows(a.value().data(), b.value().data(), out.data(),
                            reps, nb);
  ImplPtr pa = a.impl(), pb = b.impl();
  return MakeNode(std::move(out), {pa, pb}, [pa, pb, nb, reps](VariableImpl& n) {
    // When pb is the same node, its term below still reads n.grad.
    if (pa->requires_grad) PassGrad(*pa, n.grad, /*may_take=*/pa != pb);
    if (pb->requires_grad) {
      kernels::AccumulateRows(n.grad.data(), pb->MutableGrad().data(), reps,
                              nb);
    }
  });
}

Variable Sub(const Variable& a, const Variable& b) {
  ROTOM_CHECK(SameShape(a, b));
  Tensor out = Tensor::Uninitialized(a.value().shape());
  // x - y rounds as the fma(-1, y, x) of an Axpy onto a copy of a did.
  kernels::ZipMap(a.value().data(), b.value().data(), out.data(), out.size(),
                  [](float x, float y) { return x - y; });
  ImplPtr pa = a.impl(), pb = b.impl();
  return MakeNode(std::move(out), {pa, pb}, [pa, pb](VariableImpl& n) {
    // When pb is the same node, its term below still reads n.grad.
    if (pa->requires_grad) PassGrad(*pa, n.grad, /*may_take=*/pa != pb);
    if (pb->requires_grad) pb->MutableGrad().AddScaled(n.grad, -1.0f);
  });
}

Variable Mul(const Variable& a, const Variable& b) {
  ROTOM_CHECK(SameShape(a, b));
  Tensor out = Tensor::Uninitialized(a.value().shape());
  const int64_t num = out.size();
  kernels::ZipMap(a.value().data(), b.value().data(), out.data(), num,
                  [](float x, float y) { return x * y; });
  ImplPtr pa = a.impl(), pb = b.impl();
  Tensor av = a.value(), bv = b.value();
  return MakeNode(std::move(out), {pa, pb},
                  [pa, pb, av, bv, num](VariableImpl& n) {
                    const float* g = n.grad.data();
                    if (pa->requires_grad) {
                      const GradTarget ga = GradOut(*pa);
                      kernels::ZipAccumulate(
                          g, bv.data(), ga.data, num,
                          [](float gi, float y) { return gi * y; }, ga.mode);
                    }
                    if (pb->requires_grad) {
                      const GradTarget gb = GradOut(*pb);
                      kernels::ZipAccumulate(
                          g, av.data(), gb.data, num,
                          [](float gi, float x) { return gi * x; }, gb.mode);
                    }
                  });
}

Variable Scale(const Variable& a, float c) {
  Tensor out = Tensor::Uninitialized(a.value().shape());
  kernels::Map(a.value().data(), out.data(), out.size(),
               [c](float x) { return x * c; });
  ImplPtr pa = a.impl();
  return MakeNode(std::move(out), {pa}, [pa, c](VariableImpl& n) {
    if (!pa->requires_grad) return;
    if (pa->grad.defined()) {
      pa->grad.AddScaled(n.grad, c);
      return;
    }
    // A fresh gradient: 0 + c·g, the sum the Axpy onto zeros would give.
    pa->grad = Tensor::Uninitialized(pa->value.shape());
    kernels::Map(n.grad.data(), pa->grad.data(), n.grad.size(),
                 [c](float g) { return 0.0f + g * c; });
  });
}

Variable AddScalar(const Variable& a, float c) {
  Tensor out = Tensor::Uninitialized(a.value().shape());
  kernels::Map(a.value().data(), out.data(), out.size(),
               [c](float x) { return x + c; });
  ImplPtr pa = a.impl();
  return MakeNode(std::move(out), {pa}, [pa](VariableImpl& n) {
    if (pa->requires_grad) PassGrad(*pa, n.grad);
  });
}

Variable MatMul(const Variable& a, const Variable& b) {
  const auto& as = a.value().shape();
  const auto& bs = b.value().shape();
  const MatMulShapes s = ResolveMatMulShapes(as, bs, /*b_transposed=*/false);
  const int64_t m = s.m, k = s.k, n = s.n, batch = s.batch;
  const bool shared_b = s.shared_b;
  const int64_t b_stride = shared_b ? 0 : k * n;

  Tensor out = Tensor::Uninitialized(MatMulOutShape(as, m, n));
  kernels::BatchedGemmAB(a.value().data(), b.value().data(), out.data(), batch,
                         m, k, n, b_stride, kernels::OutputMode::kWrite);
  ImplPtr pa = a.impl(), pb = b.impl();
  Tensor av = a.value(), bv = b.value();
  return MakeNode(
      std::move(out), {pa, pb},
      [pa, pb, av, bv, m, k, n, batch, b_stride](VariableImpl& node) {
        const float* g = node.grad.data();
        if (pa->requires_grad) {
          // dA[s] += dC[s] * B[s]^T, with B[s] of shape [k,n].
          const GradTarget ga = GradOut(*pa);
          kernels::BatchedGemmABT(g, bv.data(), ga.data, batch, m, n, k,
                                  b_stride, ga.mode);
        }
        if (pb->requires_grad) {
          // dB[s] += A[s]^T * dC[s]; stride 0 accumulates a shared B.
          const GradTarget gb = GradOut(*pb);
          kernels::BatchedGemmATB(av.data(), g, gb.data, batch, m, k, n,
                                  b_stride, gb.mode);
        }
      });
}

Variable MatMulBT(const Variable& a, const Variable& b) {
  const auto& as = a.value().shape();
  const auto& bs = b.value().shape();
  const MatMulShapes s = ResolveMatMulShapes(as, bs, /*b_transposed=*/true);
  const int64_t m = s.m, k = s.k, n = s.n, batch = s.batch;
  const int64_t b_stride = s.shared_b ? 0 : n * k;

  Tensor out = Tensor::Uninitialized(MatMulOutShape(as, m, n));
  kernels::BatchedGemmABT(a.value().data(), b.value().data(), out.data(),
                          batch, m, k, n, b_stride,
                          kernels::OutputMode::kWrite);
  ImplPtr pa = a.impl(), pb = b.impl();
  Tensor av = a.value(), bv = b.value();
  return MakeNode(
      std::move(out), {pa, pb},
      [pa, pb, av, bv, m, k, n, batch, b_stride](VariableImpl& node) {
        const float* g = node.grad.data();
        if (pa->requires_grad) {
          // dA[s] += dC[s] * B[s], dC [m,n] x B [n,k] -> [m,k].
          const GradTarget ga = GradOut(*pa);
          kernels::BatchedGemmAB(g, bv.data(), ga.data, batch, m, n, k,
                                 b_stride, ga.mode);
        }
        if (pb->requires_grad) {
          // dB[s] += dC[s]^T * A[s], [n,m] x [m,k] -> [n,k]; stride 0
          // accumulates a shared B.
          const GradTarget gb = GradOut(*pb);
          kernels::BatchedGemmATB(g, av.data(), gb.data, batch, m, n, k,
                                  b_stride, gb.mode);
        }
      });
}

Variable Transpose(const Variable& a, int64_t d0, int64_t d1) {
  Tensor out = TransposeCopy(a.value(), d0, d1);
  ImplPtr pa = a.impl();
  return MakeNode(std::move(out), {pa}, [pa, d0, d1](VariableImpl& n) {
    if (!pa->requires_grad) return;
    PassGrad(*pa, TransposeCopy(n.grad, d1, d0));
  });
}

Variable Reshape(const Variable& a, std::vector<int64_t> shape) {
  Tensor out = a.value().Reshape(std::move(shape));
  ImplPtr pa = a.impl();
  const std::vector<int64_t> orig = a.value().shape();
  return MakeNode(std::move(out), {pa}, [pa, orig](VariableImpl& n) {
    if (!pa->requires_grad) return;
    PassGrad(*pa, n.grad.Reshape(orig));
  });
}

Variable Softmax(const Variable& a) {
  Tensor out = SoftmaxRows(a.value());
  ImplPtr pa = a.impl();
  Tensor y = out;
  const int64_t c = out.size(-1);
  const int64_t rows = out.size() / c;
  return MakeNode(std::move(out), {pa}, [pa, y, c, rows](VariableImpl& n) {
    if (!pa->requires_grad) return;
    kernels::SoftmaxBackwardRows(y.data(), n.grad.data(),
                                 pa->MutableGrad().data(), rows, c);
  });
}

Variable LogSoftmax(const Variable& a) {
  const int64_t c = a.value().size(-1);
  const int64_t rows = a.value().size() / c;
  Tensor out = Tensor::Uninitialized(a.value().shape());
  kernels::LogSoftmaxRows(a.value().data(), out.data(), rows, c);
  ImplPtr pa = a.impl();
  Tensor y = out;
  return MakeNode(std::move(out), {pa}, [pa, y, c, rows](VariableImpl& n) {
    if (!pa->requires_grad) return;
    kernels::LogSoftmaxBackwardRows(y.data(), n.grad.data(),
                                    pa->MutableGrad().data(), rows, c);
  });
}

Variable Sum(const Variable& a) {
  Tensor out = Tensor::Scalar(a.value().Sum());
  ImplPtr pa = a.impl();
  return MakeNode(std::move(out), {pa}, [pa](VariableImpl& n) {
    if (!pa->requires_grad) return;
    const float g = n.grad[0];
    kernels::Apply(pa->MutableGrad().data(), pa->value.size(),
                   [g](float v) { return v + g; });
  });
}

Variable Mean(const Variable& a) {
  const int64_t num = a.value().size();
  Tensor out = Tensor::Scalar(a.value().Mean());
  ImplPtr pa = a.impl();
  return MakeNode(std::move(out), {pa}, [pa, num](VariableImpl& n) {
    if (!pa->requires_grad) return;
    const float g = n.grad[0] / static_cast<float>(num);
    kernels::Apply(pa->MutableGrad().data(), num,
                   [g](float v) { return v + g; });
  });
}

Variable Dot(const Variable& a, const Variable& b) {
  ROTOM_CHECK_EQ(a.value().dim(), 1);
  ROTOM_CHECK(SameShape(a, b));
  const int64_t num = a.value().size();
  // Serial double-precision reduction: the order is part of the numeric
  // contract (thread-count invariant).
  double acc = 0.0;
  {
    const float* x = a.value().data();
    const float* y = b.value().data();
    for (int64_t i = 0; i < num; ++i) acc += static_cast<double>(x[i]) * y[i];
  }
  ImplPtr pa = a.impl(), pb = b.impl();
  Tensor av = a.value(), bv = b.value();
  return MakeNode(Tensor::Scalar(static_cast<float>(acc)), {pa, pb},
                  [pa, pb, av, bv](VariableImpl& n) {
                    const float g = n.grad[0];
                    if (pa->requires_grad) pa->MutableGrad().AddScaled(bv, g);
                    if (pb->requires_grad) pb->MutableGrad().AddScaled(av, g);
                  });
}

Variable Relu(const Variable& a) {
  const int64_t num = a.value().size();
  Tensor out = Tensor::Uninitialized(a.value().shape());
  kernels::Map(a.value().data(), out.data(), num,
               [](float x) { return x > 0.0f ? x : 0.0f; });
  ImplPtr pa = a.impl();
  Tensor av = a.value();
  return MakeNode(std::move(out), {pa}, [pa, av, num](VariableImpl& n) {
    if (!pa->requires_grad) return;
    const GradTarget ga = GradOut(*pa);
    kernels::ZipAccumulate(
        n.grad.data(), av.data(), ga.data, num,
        [](float g, float x) { return x > 0.0f ? g : 0.0f; }, ga.mode);
  });
}

Variable Abs(const Variable& a) {
  const int64_t num = a.value().size();
  Tensor out = Tensor::Uninitialized(a.value().shape());
  kernels::Map(a.value().data(), out.data(), num,
               [](float x) { return std::fabs(x); });
  ImplPtr pa = a.impl();
  Tensor av = a.value();
  return MakeNode(std::move(out), {pa}, [pa, av, num](VariableImpl& n) {
    if (!pa->requires_grad) return;
    const GradTarget ga = GradOut(*pa);
    kernels::ZipAccumulate(
        n.grad.data(), av.data(), ga.data, num,
        [](float g, float x) {
          if (x > 0.0f) return g;
          if (x < 0.0f) return -g;
          return 0.0f;
        },
        ga.mode);
  });
}

Variable Gelu(const Variable& a) {
  const int64_t num = a.value().size();
  Tensor out = Tensor::Uninitialized(a.value().shape());
  kernels::GeluForward(a.value().data(), out.data(), num);
  ImplPtr pa = a.impl();
  Tensor av = a.value();
  return MakeNode(std::move(out), {pa}, [pa, av, num](VariableImpl& n) {
    if (!pa->requires_grad) return;
    kernels::GeluBackward(av.data(), n.grad.data(), pa->MutableGrad().data(),
                          num);
  });
}

Variable Tanh(const Variable& a) {
  const int64_t num = a.value().size();
  Tensor out = Tensor::Uninitialized(a.value().shape());
  kernels::Map(a.value().data(), out.data(), num,
               [](float x) { return std::tanh(x); });
  ImplPtr pa = a.impl();
  Tensor y = out;
  return MakeNode(std::move(out), {pa}, [pa, y, num](VariableImpl& n) {
    if (!pa->requires_grad) return;
    const GradTarget ga = GradOut(*pa);
    kernels::ZipAccumulate(
        n.grad.data(), y.data(), ga.data, num,
        [](float g, float yv) { return g * (1.0f - yv * yv); }, ga.mode);
  });
}

Variable Sigmoid(const Variable& a) {
  const int64_t num = a.value().size();
  Tensor out = Tensor::Uninitialized(a.value().shape());
  kernels::Map(a.value().data(), out.data(), num,
               [](float x) { return 1.0f / (1.0f + std::exp(-x)); });
  ImplPtr pa = a.impl();
  Tensor y = out;
  return MakeNode(std::move(out), {pa}, [pa, y, num](VariableImpl& n) {
    if (!pa->requires_grad) return;
    const GradTarget ga = GradOut(*pa);
    kernels::ZipAccumulate(
        n.grad.data(), y.data(), ga.data, num,
        [](float g, float yv) { return g * yv * (1.0f - yv); }, ga.mode);
  });
}

Variable Dropout(const Variable& a, float p, Rng& rng, bool training) {
  if (!training || p <= 0.0f) return a;
  ROTOM_CHECK_LT(p, 1.0f);
  const float keep = 1.0f - p;
  const float scale = 1.0f / keep;
  const int64_t num = a.value().size();
  Tensor mask = Tensor::Uninitialized(a.value().shape());
  Tensor out = Tensor::Uninitialized(a.value().shape());
  {
    // Mask generation is serial: the Rng is a sequential stream and the
    // draw order is part of run-to-run reproducibility.
    float* md = mask.data();
    for (int64_t i = 0; i < num; ++i)
      md[i] = rng.Bernoulli(keep) ? scale : 0.0f;
  }
  kernels::ZipMap(a.value().data(), mask.data(), out.data(), num,
                  [](float x, float m) { return x * m; });
  ImplPtr pa = a.impl();
  return MakeNode(std::move(out), {pa}, [pa, mask, num](VariableImpl& n) {
    if (!pa->requires_grad) return;
    const GradTarget ga = GradOut(*pa);
    kernels::ZipAccumulate(n.grad.data(), mask.data(), ga.data, num,
                           [](float g, float m) { return g * m; }, ga.mode);
  });
}

Variable Embedding(const Variable& table, const std::vector<int64_t>& ids) {
  ROTOM_CHECK_EQ(table.value().dim(), 2);
  const int64_t v = table.value().size(0);
  const int64_t d = table.value().size(1);
  const int64_t n = static_cast<int64_t>(ids.size());
  for (int64_t i = 0; i < n; ++i) {
    ROTOM_CHECK_GE(ids[i], 0);
    ROTOM_CHECK_LT(ids[i], v);
  }
  Tensor out = Tensor::Uninitialized({n, d});
  kernels::GatherRows(table.value().data(), ids.data(), out.data(), n, d);
  ImplPtr pt = table.impl();
  return MakeNode(std::move(out), {pt}, [pt, ids, d, n](VariableImpl& node) {
    if (!pt->requires_grad) return;
    // Scatter-add is serial: duplicate ids write the same row.
    kernels::ScatterAddRows(node.grad.data(), ids.data(),
                            pt->MutableGrad().data(), n, d);
  });
}

Variable LayerNorm(const Variable& x, const Variable& gamma,
                   const Variable& beta, float eps) {
  const int64_t d = x.value().size(-1);
  ROTOM_CHECK_EQ(gamma.value().size(), d);
  ROTOM_CHECK_EQ(beta.value().size(), d);
  const int64_t rows = x.value().size() / d;

  Tensor out = Tensor::Uninitialized(x.value().shape());
  Tensor xhat = Tensor::Uninitialized(x.value().shape());
  Tensor inv_std = Tensor::Uninitialized({rows});
  kernels::LayerNormRows(x.value().data(), gamma.value().data(),
                         beta.value().data(), eps, out.data(), xhat.data(),
                         inv_std.data(), rows, d);
  ImplPtr px = x.impl(), pg = gamma.impl(), pb = beta.impl();
  Tensor gv = gamma.value();
  return MakeNode(
      std::move(out), {px, pg, pb},
      [px, pg, pb, gv, xhat, inv_std, d, rows](VariableImpl& n) {
        const float* g = n.grad.data();
        if (pg->requires_grad || pb->requires_grad) {
          kernels::LayerNormParamGradRows(
              g, xhat.data(),
              pg->requires_grad ? pg->MutableGrad().data() : nullptr,
              pb->requires_grad ? pb->MutableGrad().data() : nullptr, rows, d);
        }
        if (px->requires_grad) {
          kernels::LayerNormInputGradRows(g, gv.data(), xhat.data(),
                                          inv_std.data(),
                                          px->MutableGrad().data(), rows, d);
        }
      });
}

Variable ConcatLastDim(const std::vector<Variable>& parts) {
  ROTOM_CHECK(!parts.empty());
  const auto& first_shape = parts[0].value().shape();
  std::vector<int64_t> lead(first_shape.begin(), first_shape.end() - 1);
  int64_t total_last = 0;
  int64_t rows = 1;
  for (int64_t d : lead) rows *= d;
  std::vector<int64_t> widths;
  for (const auto& p : parts) {
    const auto& s = p.value().shape();
    ROTOM_CHECK_EQ(s.size(), first_shape.size());
    for (size_t d = 0; d + 1 < s.size(); ++d) ROTOM_CHECK_EQ(s[d], lead[d]);
    widths.push_back(s.back());
    total_last += s.back();
  }
  std::vector<int64_t> out_shape = lead;
  out_shape.push_back(total_last);
  Tensor out = Tensor::Uninitialized(out_shape);
  {
    float* o = out.data();
    kernels::ParallelRows(rows, total_last, [&](int64_t r) {
      int64_t off = 0;
      for (size_t p = 0; p < parts.size(); ++p) {
        const float* src = parts[p].value().data() + r * widths[p];
        std::memcpy(o + r * total_last + off, src, sizeof(float) * widths[p]);
        off += widths[p];
      }
    });
  }
  std::vector<ImplPtr> impls;
  for (const auto& p : parts) impls.push_back(p.impl());
  return MakeNode(std::move(out), impls,
                  [impls, widths, rows, total_last](VariableImpl& n) {
                    const float* g = n.grad.data();
                    int64_t off = 0;
                    for (size_t p = 0; p < impls.size(); ++p) {
                      const int64_t w = widths[p];
                      if (impls[p]->requires_grad) {
                        float* gp = impls[p]->MutableGrad().data();
                        kernels::ParallelRows(rows, w, [&](int64_t r) {
                          const float* gr = g + r * total_last + off;
                          float* gpr = gp + r * w;
                          for (int64_t j = 0; j < w; ++j) gpr[j] += gr[j];
                        });
                      }
                      off += w;
                    }
                  });
}

Variable SelectIndex(const Variable& x, int64_t dim, int64_t index) {
  const int64_t nd = x.value().dim();
  if (dim < 0) dim += nd;
  ROTOM_CHECK_GE(dim, 0);
  ROTOM_CHECK_LT(dim, nd);
  const int64_t extent = x.value().size(dim);
  ROTOM_CHECK_GE(index, 0);
  ROTOM_CHECK_LT(index, extent);

  int64_t outer = 1, inner = 1;
  for (int64_t d = 0; d < dim; ++d) outer *= x.value().size(d);
  for (int64_t d = dim + 1; d < nd; ++d) inner *= x.value().size(d);

  std::vector<int64_t> out_shape;
  for (int64_t d = 0; d < nd; ++d)
    if (d != dim) out_shape.push_back(x.value().size(d));
  if (out_shape.empty()) out_shape.push_back(1);

  Tensor out = Tensor::Uninitialized(out_shape);
  {
    const float* in = x.value().data();
    float* o = out.data();
    kernels::ParallelRows(outer, inner, [&](int64_t a) {
      std::memcpy(o + a * inner, in + (a * extent + index) * inner,
                  sizeof(float) * inner);
    });
  }
  ImplPtr px = x.impl();
  return MakeNode(std::move(out), {px},
                  [px, outer, inner, extent, index](VariableImpl& n) {
                    if (!px->requires_grad) return;
                    float* gx = px->MutableGrad().data();
                    const float* g = n.grad.data();
                    kernels::ParallelRows(outer, inner, [&](int64_t a) {
                      float* dst = gx + (a * extent + index) * inner;
                      const float* src = g + a * inner;
                      for (int64_t j = 0; j < inner; ++j) dst[j] += src[j];
                    });
                  });
}

Variable AddSequenceMask(const Variable& scores, const Tensor& bias) {
  ROTOM_CHECK_EQ(bias.dim(), 2);
  const int64_t b = bias.size(0);
  const int64_t s = bias.size(1);
  ROTOM_CHECK_EQ(scores.value().size(0), b);
  ROTOM_CHECK_EQ(scores.value().size(-1), s);
  const int64_t mid = scores.value().size() / (b * s);

  Tensor out = Tensor::Uninitialized(scores.value().shape());
  {
    const float* in = scores.value().data();
    float* o = out.data();
    const float* bd = bias.data();
    kernels::ParallelRows(b * mid, s, [&](int64_t r) {
      const float* brow = bd + (r / mid) * s;
      const float* irow = in + r * s;
      float* row = o + r * s;
      for (int64_t j = 0; j < s; ++j) row[j] = irow[j] + brow[j];
    });
  }
  ImplPtr ps = scores.impl();
  return MakeNode(std::move(out), {ps}, [ps](VariableImpl& n) {
    if (ps->requires_grad) PassGrad(*ps, n.grad);
  });
}

Variable AddCausalMask(const Variable& scores) {
  ROTOM_CHECK_GE(scores.value().dim(), 2);
  const int64_t s = scores.value().size(-1);
  const int64_t t = scores.value().size(-2);
  const int64_t mats = scores.value().size() / (t * s);
  Tensor out = Tensor::Uninitialized(scores.value().shape());
  const float* in = scores.value().data();
  float* o = out.data();
  kernels::ParallelRows(mats * t, s, [&](int64_t r) {
    const int64_t i = r % t;
    const float* irow = in + r * s;
    float* row = o + r * s;
    const int64_t keep = std::min(i + 1, s);
    std::memcpy(row, irow, sizeof(float) * keep);
    for (int64_t j = keep; j < s; ++j) row[j] = irow[j] + -1e9f;
  });
  ImplPtr ps = scores.impl();
  return MakeNode(std::move(out), {ps}, [ps](VariableImpl& n) {
    if (ps->requires_grad) PassGrad(*ps, n.grad);
  });
}

Variable CrossEntropyPerExample(const Variable& logits,
                                const std::vector<int64_t>& labels) {
  ROTOM_CHECK_EQ(logits.value().dim(), 2);
  const int64_t b = logits.value().size(0);
  const int64_t c = logits.value().size(1);
  ROTOM_CHECK_EQ(static_cast<int64_t>(labels.size()), b);
  for (int64_t i = 0; i < b; ++i) {
    ROTOM_CHECK_GE(labels[i], 0);
    ROTOM_CHECK_LT(labels[i], c);
  }

  Tensor probs = SoftmaxRows(logits.value());
  Tensor out = Tensor::Uninitialized({b});
  {
    const float* p = probs.data();
    float* o = out.data();
    const int64_t* lab = labels.data();
    kernels::ParallelRows(b, c, [&](int64_t i) {
      const float pi = std::max(p[i * c + lab[i]], 1e-12f);
      o[i] = -std::log(pi);
    });
  }
  ImplPtr pl = logits.impl();
  return MakeNode(std::move(out), {pl},
                  [pl, probs, labels, b, c](VariableImpl& n) {
                    if (!pl->requires_grad) return;
                    float* gl = pl->MutableGrad().data();
                    const float* g = n.grad.data();
                    const float* p = probs.data();
                    const int64_t* lab = labels.data();
                    kernels::ParallelRows(b, 2 * c, [&](int64_t i) {
                      const float gi = g[i];
                      float* row = gl + i * c;
                      const float* prow = p + i * c;
                      for (int64_t j = 0; j < c; ++j) row[j] += gi * prow[j];
                      row[lab[i]] -= gi;
                    });
                  });
}

Variable CrossEntropyMean(const Variable& logits,
                          const std::vector<int64_t>& labels) {
  return Mean(CrossEntropyPerExample(logits, labels));
}

Variable SoftCrossEntropyPerExample(const Variable& logits,
                                    const Tensor& target_probs) {
  ROTOM_CHECK_EQ(logits.value().dim(), 2);
  ROTOM_CHECK(logits.value().shape() == target_probs.shape());
  const int64_t b = logits.value().size(0);
  const int64_t c = logits.value().size(1);

  Tensor probs = SoftmaxRows(logits.value());
  Tensor out = Tensor::Uninitialized({b});
  {
    const float* p = probs.data();
    const float* q = target_probs.data();
    float* o = out.data();
    kernels::ParallelRows(b, 3 * c, [&](int64_t i) {
      double loss = 0.0;
      for (int64_t j = 0; j < c; ++j) {
        const float pij = std::max(p[i * c + j], 1e-12f);
        loss -= static_cast<double>(q[i * c + j]) * std::log(pij);
      }
      o[i] = static_cast<float>(loss);
    });
  }
  ImplPtr pl = logits.impl();
  return MakeNode(std::move(out), {pl},
                  [pl, probs, target_probs, b, c](VariableImpl& n) {
                    if (!pl->requires_grad) return;
                    float* gl = pl->MutableGrad().data();
                    const float* g = n.grad.data();
                    const float* p = probs.data();
                    const float* q = target_probs.data();
                    kernels::ParallelRows(b, 2 * c, [&](int64_t i) {
                      const float gi = g[i];
                      float* row = gl + i * c;
                      for (int64_t j = 0; j < c; ++j)
                        row[j] += gi * (p[i * c + j] - q[i * c + j]);
                    });
                  });
}

Variable NormalizeMeanOne(const Variable& w) {
  ROTOM_CHECK_EQ(w.value().dim(), 1);
  const int64_t n = w.value().size();
  // Small 1-D vectors (batch weights): serial fixed-order reductions.
  double total = 0.0;
  for (int64_t i = 0; i < n; ++i) total += w.value()[i];
  const float s = static_cast<float>(total) + 1e-8f;
  const float nf = static_cast<float>(n);

  Tensor out = Tensor::Uninitialized({n});
  for (int64_t i = 0; i < n; ++i) out[i] = nf * w.value()[i] / s;
  ImplPtr pw = w.impl();
  Tensor wv = w.value();
  return MakeNode(std::move(out), {pw}, [pw, wv, s, nf, n](VariableImpl& node) {
    if (!pw->requires_grad) return;
    const float* g = node.grad.data();
    const float* wd = wv.data();
    double gw = 0.0;
    for (int64_t i = 0; i < n; ++i) gw += static_cast<double>(g[i]) * wd[i];
    const float correction = static_cast<float>(gw) * nf / (s * s);
    float* gwd = pw->MutableGrad().data();
    for (int64_t j = 0; j < n; ++j) gwd[j] += nf * g[j] / s - correction;
  });
}

}  // namespace ops
}  // namespace rotom
