#include "pic/serial.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "base/mix.hpp"

namespace wavehpc::pic {

namespace {

double uniform01(std::uint64_t seed, std::uint64_t i) {
    return base::u01(base::splitmix64(seed ^ (i * 0x2545f4914f6cdd1dULL)));
}

// Approximate normal via the sum of four uniforms (cheap, deterministic).
double thermal(std::uint64_t seed, std::uint64_t i) {
    double s = 0.0;
    for (std::uint64_t k = 0; k < 4; ++k) s += uniform01(seed, 4 * i + k);
    return (s - 2.0) * std::sqrt(3.0);  // unit variance
}

}  // namespace

double Grid3::wrapped(std::ptrdiff_t x, std::ptrdiff_t y, std::ptrdiff_t z) const noexcept {
    const auto sn = static_cast<std::ptrdiff_t>(n_);
    const auto w = [sn](std::ptrdiff_t v) {
        v %= sn;
        return static_cast<std::size_t>(v < 0 ? v + sn : v);
    };
    return at(w(x), w(y), w(z));
}

std::vector<Particle> uniform_plasma(std::size_t np, std::size_t grid_n,
                                     std::uint64_t seed) {
    if (np == 0 || grid_n == 0) {
        throw std::invalid_argument("uniform_plasma: empty request");
    }
    std::vector<Particle> out(np);
    const auto l = static_cast<double>(grid_n);
    for (std::size_t i = 0; i < np; ++i) {
        Particle& p = out[i];
        p.x = l * uniform01(seed, 6 * i + 0);
        // A weak sinusoidal density perturbation seeds plasma oscillation.
        p.x += 0.2 * std::sin(2.0 * std::numbers::pi * p.x / l);
        p.x = std::fmod(p.x + l, l);
        p.y = l * uniform01(seed, 6 * i + 1);
        p.z = l * uniform01(seed, 6 * i + 2);
        p.vx = 0.05 * thermal(seed ^ 0xaaULL, 3 * i + 0);
        p.vy = 0.05 * thermal(seed ^ 0xbbULL, 3 * i + 1);
        p.vz = 0.05 * thermal(seed ^ 0xccULL, 3 * i + 2);
    }
    return out;
}

void deposit_cic(const std::vector<Particle>& particles, double charge, Grid3& rho) {
    rho.zero();
    const std::size_t n = rho.n();
    const auto sn = static_cast<double>(n);
    for (const Particle& p : particles) {
        // Cell-centered CIC: weights from the fractional offset to the
        // lower grid point.
        const double gx = std::fmod(p.x + sn, sn);
        const double gy = std::fmod(p.y + sn, sn);
        const double gz = std::fmod(p.z + sn, sn);
        const auto ix = static_cast<std::size_t>(gx);
        const auto iy = static_cast<std::size_t>(gy);
        const auto iz = static_cast<std::size_t>(gz);
        const double fx = gx - static_cast<double>(ix);
        const double fy = gy - static_cast<double>(iy);
        const double fz = gz - static_cast<double>(iz);
        const std::size_t ix1 = (ix + 1) % n;
        const std::size_t iy1 = (iy + 1) % n;
        const std::size_t iz1 = (iz + 1) % n;
        const double wx[2] = {1.0 - fx, fx};
        const double wy[2] = {1.0 - fy, fy};
        const double wz[2] = {1.0 - fz, fz};
        const std::size_t xs[2] = {ix, ix1};
        const std::size_t ys[2] = {iy, iy1};
        const std::size_t zs[2] = {iz, iz1};
        for (int a = 0; a < 2; ++a) {
            for (int b = 0; b < 2; ++b) {
                for (int c = 0; c < 2; ++c) {
                    rho.at(xs[a], ys[b], zs[c]) += charge * wx[a] * wy[b] * wz[c];
                }
            }
        }
    }
}

void solve_poisson_fft(const Grid3& rho, Grid3& phi) {
    const std::size_t n = rho.n();
    std::vector<Complex> cube(rho.flat().begin(), rho.flat().end());
    fft_3d(cube, n, false);
    // Discrete 7-point Laplacian eigenvalues: lap = sum_axis 2 cos(2 pi k/n) - 2.
    std::vector<double> eig(n);
    for (std::size_t k = 0; k < n; ++k) {
        eig[k] = 2.0 * std::cos(2.0 * std::numbers::pi * static_cast<double>(k) /
                                static_cast<double>(n)) -
                 2.0;
    }
    for (std::size_t z = 0; z < n; ++z) {
        for (std::size_t y = 0; y < n; ++y) {
            for (std::size_t x = 0; x < n; ++x) {
                const double lam = eig[x] + eig[y] + eig[z];
                Complex& c = cube[(z * n + y) * n + x];
                // lap(phi) = -rho  =>  phi_k = rho_k / (-lam); k = 0 carries
                // the neutralizing background (mean potential pinned to 0).
                c = (lam == 0.0) ? Complex(0.0, 0.0) : c / (-lam);
            }
        }
    }
    fft_3d(cube, n, true);
    if (phi.n() != n) phi = Grid3(n);
    auto out = phi.flat();
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = cube[i].real();
}

std::array<double, 3> field_at(const Grid3& phi, double x, double y, double z) {
    const std::size_t n = phi.n();
    const auto sn = static_cast<double>(n);
    const double gx = std::fmod(x + sn, sn);
    const double gy = std::fmod(y + sn, sn);
    const double gz = std::fmod(z + sn, sn);
    const auto ix = static_cast<std::ptrdiff_t>(gx);
    const auto iy = static_cast<std::ptrdiff_t>(gy);
    const auto iz = static_cast<std::ptrdiff_t>(gz);
    const double fx = gx - static_cast<double>(ix);
    const double fy = gy - static_cast<double>(iy);
    const double fz = gz - static_cast<double>(iz);
    std::array<double, 3> e{0.0, 0.0, 0.0};
    for (int a = 0; a < 2; ++a) {
        for (int b = 0; b < 2; ++b) {
            for (int c = 0; c < 2; ++c) {
                const double w = (a != 0 ? fx : 1.0 - fx) * (b != 0 ? fy : 1.0 - fy) *
                                 (c != 0 ? fz : 1.0 - fz);
                const std::ptrdiff_t px = ix + a;
                const std::ptrdiff_t py = iy + b;
                const std::ptrdiff_t pz = iz + c;
                // E = -grad(phi), central differences (paper's
                // E_g = -(phi_{g+1} - phi_{g-1}) / 2).
                e[0] += w * (-(phi.wrapped(px + 1, py, pz) -
                               phi.wrapped(px - 1, py, pz)) / 2.0);
                e[1] += w * (-(phi.wrapped(px, py + 1, pz) -
                               phi.wrapped(px, py - 1, pz)) / 2.0);
                e[2] += w * (-(phi.wrapped(px, py, pz + 1) -
                               phi.wrapped(px, py, pz - 1)) / 2.0);
            }
        }
    }
    return e;
}

double max_speed(const std::vector<Particle>& particles) {
    double v2 = 0.0;
    for (const Particle& p : particles) {
        v2 = std::max(v2, p.vx * p.vx + p.vy * p.vy + p.vz * p.vz);
    }
    return std::sqrt(v2);
}

double push_particles(std::vector<Particle>& particles, const Grid3& phi, double dt,
                      double vmax_global) {
    const auto sn = static_cast<double>(phi.n());
    // Adaptive step: no particle may cross more than half a cell.
    double used = dt;
    if (vmax_global > 0.0) used = std::min(used, 0.5 / vmax_global);
    for (Particle& p : particles) {
        const auto e = field_at(phi, p.x, p.y, p.z);
        p.vx += used * e[0];
        p.vy += used * e[1];
        p.vz += used * e[2];
        p.x = std::fmod(p.x + used * p.vx + sn, sn);
        p.y = std::fmod(p.y + used * p.vy + sn, sn);
        p.z = std::fmod(p.z + used * p.vz + sn, sn);
    }
    return used;
}

PicStepInfo serial_pic_step(std::vector<Particle>& particles, Grid3& rho, Grid3& phi,
                            const PicConfig& cfg) {
    if (rho.n() != cfg.grid_n) rho = Grid3(cfg.grid_n);
    if (phi.n() != cfg.grid_n) phi = Grid3(cfg.grid_n);
    deposit_cic(particles, cfg.charge, rho);
    PicStepInfo info;
    for (double v : rho.flat()) info.total_charge += v;
    solve_poisson_fft(rho, phi);
    info.used_dt = push_particles(particles, phi, cfg.dt, max_speed(particles));
    return info;
}

double PicCostModel::resident_bytes(std::size_t np) const noexcept {
    // Particle records + six field-sized arrays (rho, phi, FFT scratch) +
    // a couple of MB of code/buffers.
    return static_cast<double>(np) * sizeof(Particle) +
           6.0 * static_cast<double>(grid_n * grid_n * grid_n) * 8.0 + 2.0e6;
}

double PicCostModel::paging_factor(std::size_t np) const noexcept {
    if (node_memory_bytes <= 0.0) return 1.0;
    const double ratio = resident_bytes(np) / node_memory_bytes;
    if (ratio <= 1.0) return 1.0;
    return 1.0 + paging_quadratic * (ratio - 1.0) * (ratio - 1.0);
}

namespace {

PicCostModel fit(std::string machine, std::size_t grid_n,
                 const PicSerialReference::Point (&pts)[3], double node_mem) {
    // Linear two-point fit through the first two (measured, unpaged)
    // points; the third published point doubles as a prediction check in
    // tests and benches.
    PicCostModel m;
    m.machine = std::move(machine);
    m.grid_n = grid_n;
    m.per_particle = (pts[1].seconds - pts[0].seconds) /
                     static_cast<double>(pts[1].np - pts[0].np);
    m.per_step_grid = pts[0].seconds - m.per_particle * static_cast<double>(pts[0].np);
    m.node_memory_bytes = node_mem;
    return m;
}

}  // namespace

PicCostModel PicCostModel::paragon(std::size_t grid_n) {
    switch (grid_n) {
        case 32:
            return fit("paragon-i860", 32, PicSerialReference::paragon_m32, 32.0e6);
        case 64:
            return fit("paragon-i860", 64, PicSerialReference::paragon_m64, 32.0e6);
        default:
            throw std::invalid_argument("PicCostModel::paragon: m must be 32 or 64");
    }
}

PicCostModel PicCostModel::t3d(std::size_t grid_n) {
    // T3D nodes: 16 MB less ~25% microkernel => ~12 MB usable per the
    // report; the published T3D runs never paged.
    switch (grid_n) {
        case 32:
            return fit("cray-t3d", 32, PicSerialReference::t3d_m32, 12.0e6);
        case 64:
            return fit("cray-t3d", 64, PicSerialReference::t3d_m64, 12.0e6);
        default:
            throw std::invalid_argument("PicCostModel::t3d: m must be 32 or 64");
    }
}

}  // namespace wavehpc::pic
