#include "nbody/model.hpp"

#include <cmath>
#include <mutex>
#include <stdexcept>

#include "base/mix.hpp"

namespace wavehpc::nbody {

namespace {

// Stateless keyed draws keep the initial condition deterministic.
double uniform01(std::uint64_t seed, std::uint64_t i) {
    return base::u01(base::splitmix64(seed ^ (i * 0x2545f4914f6cdd1dULL)));
}

// One Plummer-like disk: radius ~ r0 / sqrt(u^{-2/3} - 1), circular motion.
void fill_galaxy(std::vector<Body>& bodies, std::size_t first, std::size_t count,
                 Vec2 center, Vec2 drift, double scale, std::uint64_t seed) {
    for (std::size_t i = 0; i < count; ++i) {
        const double u = std::max(1e-6, uniform01(seed, 3 * i));
        const double r = scale / std::sqrt(std::pow(u, -2.0 / 3.0) - 1.0 + 1e-9);
        const double phi = 2.0 * M_PI * uniform01(seed, 3 * i + 1);
        Body b;
        b.pos = {center.x + r * std::cos(phi), center.y + r * std::sin(phi)};
        // Roughly circular orbit in the enclosed-mass field, plus drift.
        const double v = std::sqrt(kG * static_cast<double>(count) * u /
                                   std::max(r, 1e-3));
        b.vel = {drift.x - v * std::sin(phi), drift.y + v * std::cos(phi)};
        b.mass = 1.0 + 0.1 * (uniform01(seed, 3 * i + 2) - 0.5);
        b.cost = 1.0;
        bodies[first + i] = b;
    }
}

}  // namespace

std::vector<Body> interacting_galaxies(std::size_t n, std::uint64_t seed) {
    if (n < 2) throw std::invalid_argument("interacting_galaxies: n must be >= 2");
    std::vector<Body> bodies(n);
    const std::size_t n1 = n / 2;
    fill_galaxy(bodies, 0, n1, {-40.0, 0.0}, {2.0, 0.5}, 8.0, seed);
    fill_galaxy(bodies, n1, n - n1, {40.0, 5.0}, {-2.0, -0.5}, 6.0, seed ^ 0xdeadULL);
    return bodies;
}

StepStats serial_step(std::vector<Body>& bodies, const SimConfig& cfg) {
    StepStats stats;
    QuadTree tree(bodies);
    tree.compute_centers_of_mass(bodies);
    stats.tree_steps = tree.build_steps();

    std::vector<Vec2> acc(bodies.size());
    for (std::uint32_t i = 0; i < bodies.size(); ++i) {
        std::uint64_t before = stats.interactions;
        acc[i] = tree.acceleration(bodies, bodies[i].pos, i, cfg.theta,
                                   &stats.interactions);
        bodies[i].cost = static_cast<double>(stats.interactions - before);
    }
    for (std::size_t i = 0; i < bodies.size(); ++i) {
        bodies[i].vel += cfg.dt * acc[i];
        bodies[i].pos += cfg.dt * bodies[i].vel;
    }
    return stats;
}

NbodyCostModel NbodyCostModel::calibrate(std::string machine,
                                         const StepStats& anchor_stats,
                                         std::size_t anchor_bodies,
                                         double anchor_seconds, double force_fraction,
                                         double tree_fraction) {
    if (anchor_stats.interactions == 0 || anchor_stats.tree_steps == 0 ||
        anchor_bodies == 0 || anchor_seconds <= 0.0 || force_fraction <= 0.0 ||
        tree_fraction <= 0.0 || force_fraction + tree_fraction >= 1.0) {
        throw std::invalid_argument("NbodyCostModel::calibrate: bad anchor");
    }
    NbodyCostModel m;
    m.machine = std::move(machine);
    m.per_interaction = force_fraction * anchor_seconds /
                        static_cast<double>(anchor_stats.interactions);
    m.per_tree_step =
        tree_fraction * anchor_seconds / static_cast<double>(anchor_stats.tree_steps);
    m.per_body_update = (1.0 - force_fraction - tree_fraction) * anchor_seconds /
                        static_cast<double>(anchor_bodies);
    return m;
}

namespace {

// The calibration anchor runs one 32K-body step once per process.
const StepStats& anchor_stats_32k() {
    static const StepStats stats = [] {
        auto bodies = interacting_galaxies(32768);
        return serial_step(bodies, SimConfig{});
    }();
    return stats;
}

}  // namespace

const NbodyCostModel& NbodyCostModel::paragon() {
    static const NbodyCostModel m =
        calibrate("paragon-i860", anchor_stats_32k(), 32768, 237.51);
    return m;
}

const NbodyCostModel& NbodyCostModel::t3d() {
    static const NbodyCostModel m =
        calibrate("cray-t3d", anchor_stats_32k(), 32768, 30.90);
    return m;
}

}  // namespace wavehpc::nbody
