#include "kernels/hermite.hpp"

#include <algorithm>

#include "kernels/simd.hpp"
#include "util/parallel.hpp"

namespace jungle::kernels {

namespace hermite {

// Sources are laid out SoA and padded by kMaxLanes entries, so the last
// vector of rows in a range loads in bounds.
struct Sources {
  const double *x, *y, *z, *vx, *vy, *vz, *m;
  std::size_t n;
  double eps2;
};

namespace {

constexpr std::size_t kMaxLanes = 8;
// Rows are processed in blocks of kIBlock (the parallel grain) whose totals
// stay in a stack array, against L1-sized j-tiles of the SoA sources
// (kJTile * 7 doubles = 28 KiB).
constexpr std::size_t kIBlock = 64;
constexpr std::size_t kJTile = 512;

// The force loop, written once over simd.hpp lane traits L. Each vector
// lane holds one row i; every source j is broadcast to all lanes in order.
// Per row the arithmetic is the scalar loop's: the same operations in the
// same order (per tile: sum j = jb..jend-1 from zero, then add the tile sum
// to the row total), so every width gives the scalar result bit for bit.
// The one row-dependent step is skipping j == i, done with a masked add
// that leaves the lane untouched (exact even when eps2 = 0 makes the self
// term NaN). Instantiated only inside JUNGLE_SIMD_ENTRY functions, which
// inline it whole, so no vector value crosses a call (hence -Wpsabi off).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"
template <class L>
void force_rows(const Sources& s, std::size_t lo, std::size_t hi, Vec3* acc,
                Vec3* jerk) {
#if defined(__clang__)
#pragma clang fp contract(off)
#endif
  using V = typename L::V;
  constexpr std::size_t W = L::kWidth;
  static_assert(kIBlock % W == 0 && W <= kMaxLanes);
  const V eps2 = L::set1(s.eps2);
  const V one = L::set1(1.0), three = L::set1(3.0);
  const auto add_all = [](V& sum, V term) { sum = sum + term; };
  for (std::size_t blo = lo; blo < hi; blo += kIBlock) {
    const std::size_t bhi = std::min(hi, blo + kIBlock);
    alignas(64) double total[6][kIBlock] = {};  // ax ay az jx jy jz
    for (std::size_t jb = 0; jb < s.n; jb += kJTile) {
      const std::size_t jend = std::min(s.n, jb + kJTile);
      for (std::size_t i0 = blo; i0 < bhi; i0 += W) {
        const V xi = L::load(s.x + i0), yi = L::load(s.y + i0),
                zi = L::load(s.z + i0);
        const V vxi = L::load(s.vx + i0), vyi = L::load(s.vy + i0),
                vzi = L::load(s.vz + i0);
        V ax = L::set1(0.0), ay = ax, az = ax, jx = ax, jy = ax, jz = ax;
        auto pair = [&](std::size_t j, auto add) {
          const V dx = L::set1(s.x[j]) - xi;
          const V dy = L::set1(s.y[j]) - yi;
          const V dz = L::set1(s.z[j]) - zi;
          const V dvx = L::set1(s.vx[j]) - vxi;
          const V dvy = L::set1(s.vy[j]) - vyi;
          const V dvz = L::set1(s.vz[j]) - vzi;
          const V r2 = dx * dx + dy * dy + dz * dz + eps2;
          const V inv_r = one / L::sqrt(r2);
          const V inv_r2 = inv_r * inv_r;
          const V inv_r3 = inv_r2 * inv_r;
          const V rv = dx * dvx + dy * dvy + dz * dvz;
          const V alpha = three * rv * inv_r2;
          const V m_r3 = L::set1(s.m[j]) * inv_r3;
          add(ax, m_r3 * dx);
          add(ay, m_r3 * dy);
          add(az, m_r3 * dz);
          add(jx, m_r3 * (dvx - alpha * dx));
          add(jy, m_r3 * (dvy - alpha * dy));
          add(jz, m_r3 * (dvz - alpha * dz));
        };
        // Rows i0..i0+W-1 meet themselves at j in [i0, i0 + W): there lane
        // j - i0 is masked off. Outside that stretch every lane adds.
        const std::size_t self_lo = std::clamp(i0, jb, jend);
        const std::size_t self_hi = std::clamp(i0 + W, jb, jend);
        for (std::size_t j = jb; j < self_lo; ++j) pair(j, add_all);
        for (std::size_t j = self_lo; j < self_hi; ++j) {
          const typename L::Mask keep = L::all_but(j - i0);
          pair(j, [keep](V& sum, V term) {
            sum = L::add_where(keep, sum, term);
          });
        }
        for (std::size_t j = self_hi; j < jend; ++j) pair(j, add_all);
        const std::size_t k = i0 - blo;
        L::store(&total[0][k], L::load(&total[0][k]) + ax);
        L::store(&total[1][k], L::load(&total[1][k]) + ay);
        L::store(&total[2][k], L::load(&total[2][k]) + az);
        L::store(&total[3][k], L::load(&total[3][k]) + jx);
        L::store(&total[4][k], L::load(&total[4][k]) + jy);
        L::store(&total[5][k], L::load(&total[5][k]) + jz);
      }
    }
    // Lanes past bhi computed rows outside [lo, hi) (or padding): dropped.
    for (std::size_t i = blo; i < bhi; ++i) {
      const std::size_t k = i - blo;
      acc[i] = {total[0][k], total[1][k], total[2][k]};
      jerk[i] = {total[3][k], total[4][k], total[5][k]};
    }
  }
}
#pragma GCC diagnostic pop

template <class L>
constexpr ForceKernel kernel(decltype(ForceKernel::rows) rows) {
  return {L::kIsa, L::kWidth, rows};
}

JUNGLE_SIMD_ENTRY()
void rows_scalar(const Sources& s, std::size_t lo, std::size_t hi, Vec3* acc,
                 Vec3* jerk) {
  force_rows<simd::ScalarLanes>(s, lo, hi, acc, jerk);
}

#if defined(JUNGLE_SIMD_X86)
JUNGLE_SIMD_ENTRY("sse2")
void rows_sse2(const Sources& s, std::size_t lo, std::size_t hi, Vec3* acc,
               Vec3* jerk) {
  force_rows<simd::Sse2Lanes>(s, lo, hi, acc, jerk);
}

JUNGLE_SIMD_ENTRY("avx2")
void rows_avx2(const Sources& s, std::size_t lo, std::size_t hi, Vec3* acc,
               Vec3* jerk) {
  force_rows<simd::Avx2Lanes>(s, lo, hi, acc, jerk);
}

JUNGLE_SIMD_ENTRY("avx512f")
void rows_avx512(const Sources& s, std::size_t lo, std::size_t hi, Vec3* acc,
                 Vec3* jerk) {
  force_rows<simd::Avx512Lanes>(s, lo, hi, acc, jerk);
}
#elif defined(JUNGLE_SIMD_NEON)
JUNGLE_SIMD_ENTRY()
void rows_neon(const Sources& s, std::size_t lo, std::size_t hi, Vec3* acc,
               Vec3* jerk) {
  force_rows<simd::NeonLanes>(s, lo, hi, acc, jerk);
}
#endif

}  // namespace

const std::vector<ForceKernel>& host_kernels() {
  static const std::vector<ForceKernel> kernels = [] {
    std::vector<ForceKernel> host{kernel<simd::ScalarLanes>(rows_scalar)};
#if defined(JUNGLE_SIMD_X86)
    __builtin_cpu_init();
    host.push_back(kernel<simd::Sse2Lanes>(rows_sse2));
    if (__builtin_cpu_supports("avx2")) {
      host.push_back(kernel<simd::Avx2Lanes>(rows_avx2));
    }
    if (__builtin_cpu_supports("avx512f")) {
      host.push_back(kernel<simd::Avx512Lanes>(rows_avx512));
    }
#elif defined(JUNGLE_SIMD_NEON)
    host.push_back(kernel<simd::NeonLanes>(rows_neon));
#endif
    return host;
  }();
  return kernels;
}

}  // namespace hermite

HermiteIntegrator::HermiteIntegrator() : HermiteIntegrator(Params{}) {}
HermiteIntegrator::HermiteIntegrator(Params params) : params_(params) {}

int HermiteIntegrator::add_particle(double mass, Vec3 position, Vec3 velocity) {
  mass_.push_back(mass);
  pos_.push_back(position);
  vel_.push_back(velocity);
  acc_.push_back({});
  jerk_.push_back({});
  dirty_ = true;
  return static_cast<int>(mass_.size()) - 1;
}

void HermiteIntegrator::compute_forces(const std::vector<Vec3>& positions,
                                       const std::vector<Vec3>& velocities,
                                       std::vector<Vec3>& acc,
                                       std::vector<Vec3>& jerk) {
  // Rows [owned_lo, owned_hi) get forces from all n sources; a sharded
  // integrator's ghost rows keep zero. Each row's result depends only on
  // the sources, never on the kernel variant, the pool or the row blocks.
  const std::size_t n = mass_.size();
  acc.assign(n, {});
  jerk.assign(n, {});
  const std::size_t padded = n + hermite::kMaxLanes;
  for (auto* column : {&sx_, &sy_, &sz_, &svx_, &svy_, &svz_}) {
    column->resize(padded);
  }
  for (std::size_t i = 0; i < n; ++i) {
    sx_[i] = positions[i].x;
    sy_[i] = positions[i].y;
    sz_[i] = positions[i].z;
    svx_[i] = velocities[i].x;
    svy_[i] = velocities[i].y;
    svz_[i] = velocities[i].z;
  }
  const hermite::Sources sources{sx_.data(),  sy_.data(),  sz_.data(),
                                 svx_.data(), svy_.data(), svz_.data(),
                                 mass_.data(), n,          params_.eps2};
  const std::size_t rlo = owned_lo();
  const std::size_t rhi = owned_hi();
  const auto rows = kernel_->rows;
  if (n < kParallelThreshold) {
    rows(sources, rlo, rhi, acc.data(), jerk.data());
  } else {
    util::ThreadPool& pool = pool_ ? *pool_ : util::ThreadPool::global();
    pool.parallel_for(rlo, rhi, hermite::kIBlock,
                      [&](std::size_t lo, std::size_t hi, unsigned) {
                        rows(sources, lo, hi, acc.data(), jerk.data());
                      });
  }
  pairs_ += static_cast<std::uint64_t>(rhi - rlo) * (n - 1);
}

double HermiteIntegrator::shared_timestep() const {
  // Sharded integrators derive the step from their owned rows only (ghost
  // rows carry zero forces); the client-level protocol does not require the
  // shards to agree on dt — each shard advances its owned rows to the same
  // t_end on its own substep sequence.
  double dt = params_.dt_max;
  for (std::size_t i = owned_lo(); i < owned_hi(); ++i) {
    double a = acc_[i].norm();
    double j = jerk_[i].norm();
    if (j > 0.0 && a > 0.0) {
      dt = std::min(dt, params_.eta * a / j);
    }
  }
  return dt;
}

void HermiteIntegrator::evolve(double t_end) {
  const std::size_t n = mass_.size();
  if (n == 0) {
    time_ = t_end;
    return;
  }
  if (dirty_) {
    compute_forces(pos_, vel_, acc_, jerk_);
    dirty_ = false;
  }
  const std::size_t rlo = owned_lo();
  const std::size_t rhi = owned_hi();
  std::vector<Vec3> pred_pos(n), pred_vel(n), new_acc(n), new_jerk(n);
  while (time_ < t_end - 1e-15) {
    double dt = std::min(shared_timestep(), t_end - time_);
    double dt2 = dt * dt / 2.0;
    double dt3 = dt2 * dt / 3.0;
    // Predictor (Taylor expansion to 3rd order in position). Ghost rows of a
    // sharded integrator carry zero acc/jerk, so the same expression drifts
    // them ballistically on their last-exchanged velocity; with the default
    // full owned range the branch below is always the Hermite one and the
    // arithmetic is identical to the unsharded integrator.
    for (std::size_t i = 0; i < n; ++i) {
      pred_pos[i] = pos_[i] + dt * vel_[i] + dt2 * acc_[i] + dt3 * jerk_[i];
      pred_vel[i] = vel_[i] + dt * acc_[i] + dt2 * jerk_[i];
    }
    compute_forces(pred_pos, pred_vel, new_acc, new_jerk);
    // Hermite corrector for owned rows; ghosts keep the drifted prediction.
    for (std::size_t i = 0; i < n; ++i) {
      if (i >= rlo && i < rhi) {
        Vec3 vel_corr = vel_[i] + dt / 2.0 * (acc_[i] + new_acc[i]) +
                        dt * dt / 12.0 * (jerk_[i] - new_jerk[i]);
        Vec3 pos_corr = pos_[i] + dt / 2.0 * (vel_[i] + vel_corr) +
                        dt * dt / 12.0 * (acc_[i] - new_acc[i]);
        pos_[i] = pos_corr;
        vel_[i] = vel_corr;
        acc_[i] = new_acc[i];
        jerk_[i] = new_jerk[i];
      } else {
        pos_[i] = pred_pos[i];
        vel_[i] = pred_vel[i];
      }
    }
    time_ += dt;
    ++substeps_;
  }
  time_ = t_end;
}

double HermiteIntegrator::kinetic_energy() const {
  double energy = 0.0;
  for (std::size_t i = 0; i < mass_.size(); ++i) {
    energy += 0.5 * mass_[i] * vel_[i].norm2();
  }
  return energy;
}

double HermiteIntegrator::potential_energy() const {
  double energy = 0.0;
  for (std::size_t i = 0; i < mass_.size(); ++i) {
    for (std::size_t j = i + 1; j < mass_.size(); ++j) {
      double r = std::sqrt((pos_[j] - pos_[i]).norm2() + params_.eps2);
      energy -= mass_[i] * mass_[j] / r;
    }
  }
  return energy;
}

}  // namespace jungle::kernels
