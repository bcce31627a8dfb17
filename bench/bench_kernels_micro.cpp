// google-benchmark microbenchmarks of the host wavelet kernels: sequential
// vs thread-pool decomposition, per filter size, plus the primitive passes
// and the convolve-vs-lifting kernel comparison.
//
// Takes the shared bench knobs (--seed / --size / --smoke, common_args.hpp)
// ahead of the usual --benchmark_* flags; --smoke shrinks min_time so CI
// can pipeline-check the binary without measuring anything.
//
// Extra flags (via the shared parser's hook):
//   --json PATH        write the per-kernel ns/pixel report and the
//                      roofline as JSON (--smoke defaults this to
//                      BENCH_kernels.json); "ok" is false when a gate failed
//   --min-speedup F    exit non-zero unless lifting/convolve speedup at 4
//                      and at 8 taps reaches F (the CI regression gate)

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common_args.hpp"
#include "core/convolve.hpp"
#include "core/dwt.hpp"
#include "core/kernels.hpp"
#include "core/synthetic.hpp"
#include "wavelet/threads_dwt.hpp"

namespace {

using wavehpc::core::BoundaryMode;
using wavehpc::core::DwtKernel;
using wavehpc::core::FilterPair;
using wavehpc::core::ImageF;

// Set once in main() before benchmark::RunSpecifiedBenchmarks.
std::uint64_t g_seed = 1996;
std::size_t g_size = 512;

const ImageF& scene512() {
    static const ImageF img =
        wavehpc::core::landsat_tm_like(g_size, g_size, g_seed);
    return img;
}

void BM_RowPass(benchmark::State& state) {
    const FilterPair fp = FilterPair::daubechies(static_cast<int>(state.range(0)));
    const ImageF& img = scene512();
    ImageF out;
    for (auto _ : state) {
        wavehpc::core::convolve_decimate_rows(img, fp.low(), out, BoundaryMode::Periodic);
        benchmark::DoNotOptimize(out);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(img.size() / 2));
}
BENCHMARK(BM_RowPass)->Arg(2)->Arg(4)->Arg(8);

void BM_ColPass(benchmark::State& state) {
    const FilterPair fp = FilterPair::daubechies(static_cast<int>(state.range(0)));
    const ImageF& img = scene512();
    ImageF out;
    for (auto _ : state) {
        wavehpc::core::convolve_decimate_cols(img, fp.low(), out, BoundaryMode::Periodic);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_ColPass)->Arg(2)->Arg(4)->Arg(8);

// Convolve vs lifting through the unified kernel layer: one fused level
// (row pass + column pass, all four subbands). Arg 0 = taps, arg 1 = the
// DwtKernel enum value (1 = convolve, 2 = lifting).
void BM_AnalyzeLevel(benchmark::State& state) {
    const FilterPair fp = FilterPair::daubechies(static_cast<int>(state.range(0)));
    const auto kernel = static_cast<DwtKernel>(state.range(1));
    const ImageF& img = scene512();
    ImageF ll, lh, hl, hh;
    for (auto _ : state) {
        wavehpc::core::analyze_level(img, fp, ll, lh, hl, hh,
                                     BoundaryMode::Periodic, kernel);
        benchmark::DoNotOptimize(ll);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(img.size()));
}
BENCHMARK(BM_AnalyzeLevel)
    ->ArgNames({"taps", "kernel"})
    ->Args({2, 1})->Args({2, 2})
    ->Args({4, 1})->Args({4, 2})
    ->Args({8, 1})->Args({8, 2});

void BM_SequentialDecompose(benchmark::State& state) {
    const FilterPair fp = FilterPair::daubechies(static_cast<int>(state.range(0)));
    const int levels = static_cast<int>(state.range(1));
    const ImageF& img = scene512();
    for (auto _ : state) {
        auto pyr = wavehpc::core::decompose(img, fp, levels);
        benchmark::DoNotOptimize(pyr);
    }
}
BENCHMARK(BM_SequentialDecompose)->Args({8, 1})->Args({4, 2})->Args({2, 4});

// Attach the pool-overhead counters (tasks, helper-run tasks, idle wait,
// queue high-water) per decomposition level, the way the paper's Appendix B
// budgets report per-run overhead next to useful time.
void report_pool_overhead(benchmark::State& state,
                          const wavehpc::runtime::PoolMetrics& before,
                          const wavehpc::runtime::PoolMetrics& after, int levels) {
    const double per_level =
        1.0 / (static_cast<double>(state.iterations()) * levels);
    state.counters["tasks/level"] = benchmark::Counter(
        static_cast<double>(after.tasks_executed - before.tasks_executed) * per_level);
    state.counters["helped/level"] = benchmark::Counter(
        static_cast<double>(after.helper_tasks - before.helper_tasks) * per_level);
    state.counters["idle_us/level"] = benchmark::Counter(
        (after.idle_seconds - before.idle_seconds) * 1e6 * per_level);
    state.counters["q_hwm"] =
        benchmark::Counter(static_cast<double>(after.queue_high_water));
}

void BM_ThreadedDecompose(benchmark::State& state) {
    const FilterPair fp = FilterPair::daubechies(static_cast<int>(state.range(0)));
    const int levels = static_cast<int>(state.range(1));
    const ImageF& img = scene512();
    wavehpc::runtime::ThreadPool pool;
    pool.reset_metrics();
    const auto before = pool.metrics();
    for (auto _ : state) {
        auto pyr = wavehpc::wavelet::decompose_parallel(img, fp, levels,
                                                        BoundaryMode::Periodic, pool);
        benchmark::DoNotOptimize(pyr);
    }
    report_pool_overhead(state, before, pool.metrics(), levels);
}
BENCHMARK(BM_ThreadedDecompose)->Args({8, 1})->Args({4, 2})->Args({2, 4});

void BM_ThreadedReconstruct(benchmark::State& state) {
    const FilterPair fp = FilterPair::daubechies(8);
    const int levels = 2;
    const auto pyr = wavehpc::core::decompose(scene512(), fp, levels);
    wavehpc::runtime::ThreadPool pool;
    pool.reset_metrics();
    const auto before = pool.metrics();
    for (auto _ : state) {
        auto img = wavehpc::wavelet::reconstruct_parallel(pyr, fp, pool);
        benchmark::DoNotOptimize(img);
    }
    report_pool_overhead(state, before, pool.metrics(), levels);
}
BENCHMARK(BM_ThreadedReconstruct);

void BM_Reconstruct(benchmark::State& state) {
    const FilterPair fp = FilterPair::daubechies(8);
    const auto pyr = wavehpc::core::decompose(scene512(), fp, 2);
    for (auto _ : state) {
        auto img = wavehpc::core::reconstruct(pyr, fp);
        benchmark::DoNotOptimize(img);
    }
}
BENCHMARK(BM_Reconstruct);

// ------------------------------------------------------------------ report
//
// Own-timed convolve-vs-lifting comparison, independent of google-benchmark
// so CI can gate on it and commit the numbers: best-of-R wall time of one
// fused analysis level per (taps, kernel), reported as ns/pixel.

struct KernelRow {
    int taps = 0;
    double convolve_ns = 0.0;  // ns per input pixel
    double lifting_ns = 0.0;
    [[nodiscard]] double speedup() const { return convolve_ns / lifting_ns; }
};

template <typename Fn>
double seconds(Fn&& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

template <typename Fn>
double best_seconds(int reps, Fn&& fn) {
    double best = std::numeric_limits<double>::infinity();
    for (int r = 0; r <= reps; ++r) {  // iteration 0 is warm-up
        const double dt = seconds(fn);
        if (r > 0) best = std::min(best, dt);
    }
    return best;
}

// The two kernels alternate call by call, so a burst of load from elsewhere
// on the host slows both sides of the ratio instead of one kernel's whole
// sample.
std::vector<KernelRow> run_kernel_report(int reps) {
    const ImageF& img = scene512();
    const double ns_per_px = 1e9 / static_cast<double>(img.size());
    std::vector<KernelRow> rows;
    for (const int taps : {2, 4, 8}) {
        const FilterPair fp = FilterPair::daubechies(taps);
        ImageF ll, lh, hl, hh;
        const auto level = [&](DwtKernel kernel) {
            return seconds([&] {
                wavehpc::core::analyze_level(img, fp, ll, lh, hl, hh,
                                             BoundaryMode::Periodic, kernel);
            });
        };
        double convolve = std::numeric_limits<double>::infinity();
        double lifting = convolve;
        for (int r = 0; r <= reps; ++r) {  // round 0 is warm-up
            const double c = level(DwtKernel::Convolve);
            const double l = level(DwtKernel::Lifting);
            if (r == 0) continue;
            convolve = std::min(convolve, c);
            lifting = std::min(lifting, l);
        }
        rows.push_back({taps, convolve * ns_per_px, lifting * ns_per_px});
    }
    return rows;
}

// Roofline: achieved bytes/s of the sequential and threaded decompositions
// against a memcpy of the scene measured in the same run. The byte count is
// what any implementation must move, the plane read and the four subbands
// written per level (8 B per input pixel of the level); the copy moves a
// plane of the same size, read + write, so both sides see the same caches.

struct RooflineRow {
    int taps = 0;
    int levels = 0;
    double bytes_per_px = 0.0;
    double sequential_gb_s = 0.0;
    double threaded_gb_s = 0.0;
};

struct Roofline {
    double memcpy_gb_s = 0.0;
    std::vector<RooflineRow> rows;
};

Roofline run_roofline(int reps) {
    const ImageF& img = scene512();
    const double px = static_cast<double>(img.size());
    Roofline out;
    std::vector<float> copy(img.size());
    const double copy_s = best_seconds(reps, [&] {
        std::memcpy(copy.data(), img.flat().data(), img.size() * sizeof(float));
        benchmark::DoNotOptimize(copy.data());
        benchmark::ClobberMemory();
    });
    out.memcpy_gb_s = 2.0 * px * sizeof(float) / copy_s / 1e9;
    wavehpc::runtime::ThreadPool pool;
    for (const auto& [taps, levels] :
         {std::pair{8, 1}, std::pair{4, 2}, std::pair{2, 4}}) {
        const FilterPair fp = FilterPair::daubechies(taps);
        RooflineRow row;
        row.taps = taps;
        row.levels = levels;
        for (int l = 0; l < levels; ++l) row.bytes_per_px += 8.0 / (1 << (2 * l));
        const double bytes = row.bytes_per_px * px;
        row.sequential_gb_s = bytes / 1e9 / best_seconds(reps, [&] {
            auto pyr = wavehpc::core::decompose(img, fp, levels, BoundaryMode::Periodic,
                                                DwtKernel::Convolve);
            benchmark::DoNotOptimize(pyr);
        });
        row.threaded_gb_s = bytes / 1e9 / best_seconds(reps, [&] {
            auto pyr = wavehpc::wavelet::decompose_parallel(
                img, fp, levels, BoundaryMode::Periodic, pool, DwtKernel::Convolve);
            benchmark::DoNotOptimize(pyr);
        });
        out.rows.push_back(row);
    }
    return out;
}

void write_kernel_json(const std::string& path, const std::vector<KernelRow>& rows,
                       const Roofline& roof, double min_speedup, bool ok) {
    std::ofstream out(path);
    out << "{\n"
        << "  \"bench\": \"kernels_micro\",\n"
        << "  \"size\": " << g_size << ",\n"
        << "  \"seed\": " << g_seed << ",\n"
        << "  \"mode\": \"periodic\",\n"
        << "  \"unit\": \"ns_per_pixel\",\n"
        << "  \"results\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto& r = rows[i];
        out << "    {\"taps\": " << r.taps                        //
            << ", \"convolve\": " << r.convolve_ns                //
            << ", \"lifting\": " << r.lifting_ns                  //
            << ", \"speedup\": " << r.speedup() << "}"            //
            << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ],\n"
        << "  \"roofline\": {\n"
        << "    \"kernel\": \"convolve\",\n"
        << "    \"bytes\": \"plane read + four subbands written per level\",\n"
        << "    \"memcpy_gb_s\": " << roof.memcpy_gb_s << ",\n"
        << "    \"rows\": [\n";
    for (std::size_t i = 0; i < roof.rows.size(); ++i) {
        const auto& r = roof.rows[i];
        out << "      {\"taps\": " << r.taps << ", \"levels\": " << r.levels
            << ", \"bytes_per_px\": " << r.bytes_per_px
            << ", \"sequential_gb_s\": " << r.sequential_gb_s
            << ", \"threaded_gb_s\": " << r.threaded_gb_s
            << ", \"sequential_share\": " << r.sequential_gb_s / roof.memcpy_gb_s
            << ", \"threaded_share\": " << r.threaded_gb_s / roof.memcpy_gb_s << "}"
            << (i + 1 < roof.rows.size() ? "," : "") << "\n";
    }
    out << "    ]\n  },\n"
        << "  \"min_speedup\": " << min_speedup << ",\n"
        << "  \"ok\": " << (ok ? "true" : "false") << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
    // Split argv: --benchmark_* flags go to google-benchmark untouched,
    // everything else is ours (--seed / --size / --smoke / --json /
    // --min-speedup).
    std::vector<char*> gb_argv = {argv[0]};
    std::vector<char*> our_argv = {argv[0]};
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg(argv[i]);
        (arg.rfind("--benchmark_", 0) == 0 ? gb_argv : our_argv).push_back(argv[i]);
    }

    wavehpc::bench::CommonArgs args;
    std::string json_path;
    double min_speedup = 0.0;
    const auto extra = [&](std::string_view flag, std::string_view value) {
        if (flag == "--json" && !value.empty()) {
            json_path = std::string(value);
            return wavehpc::bench::Consume::kFlagAndValue;
        }
        if (flag == "--min-speedup") {
            if (const auto v = wavehpc::base::parse_f64(value); v && *v > 0.0) {
                min_speedup = *v;
                return wavehpc::bench::Consume::kFlagAndValue;
            }
        }
        return wavehpc::bench::Consume::kNo;
    };
    int our_argc = static_cast<int>(our_argv.size());
    if (!wavehpc::bench::parse_bench_args(our_argc, our_argv.data(), args, extra)) {
        return 2;
    }
    g_seed = wavehpc::bench::or_default<std::uint64_t>(args.seed, 1996);
    g_size = wavehpc::bench::or_default<std::size_t>(args.size, 512);
    std::string smoke_min_time = "--benchmark_min_time=0.001";
    if (args.smoke) gb_argv.push_back(smoke_min_time.data());
    // The PR-committed artifact: --smoke emits BENCH_kernels.json by default.
    if (args.smoke && json_path.empty()) json_path = "BENCH_kernels.json";

    // Kernel comparison report (own timing, runs before google-benchmark).
    const auto rows = run_kernel_report(args.smoke ? 3 : 9);
    std::cout << "=== DWT kernel comparison: " << g_size << "x" << g_size
              << " scene, seed " << g_seed << ", one fused level, ns/pixel ===\n";
    for (const auto& r : rows) {
        std::cout << "  taps " << r.taps << ": convolve " << r.convolve_ns
                  << "  lifting " << r.lifting_ns << "  speedup " << r.speedup()
                  << "x\n";
    }
    const Roofline roof = run_roofline(args.smoke ? 3 : 9);
    std::cout << "=== roofline: decompose bytes/s vs memcpy of the scene ("
              << roof.memcpy_gb_s << " GB/s), convolve ===\n";
    for (const auto& r : roof.rows) {
        std::cout << "  F" << r.taps << "/L" << r.levels << ": " << r.bytes_per_px
                  << " B/px  sequential " << r.sequential_gb_s << " GB/s ("
                  << r.sequential_gb_s / roof.memcpy_gb_s << ")  threaded "
                  << r.threaded_gb_s << " GB/s (" << r.threaded_gb_s / roof.memcpy_gb_s
                  << ")\n";
    }
    // Gate every lattice ladder (4 and 8 taps); Haar's lifting path is the
    // plain two-tap butterfly, not the ladder under test.
    bool ok = true;
    for (const auto& r : rows) {
        if (min_speedup <= 0.0 || r.taps < 4 || r.speedup() >= min_speedup) continue;
        std::cerr << argv[0] << ": lifting speedup " << r.speedup() << "x at " << r.taps
                  << " taps is below the --min-speedup " << min_speedup << "x gate\n";
        ok = false;
    }
    if (!json_path.empty()) {
        write_kernel_json(json_path, rows, roof, min_speedup, ok);
        std::cout << "wrote " << json_path << "\n";
    }
    std::cout << "\n";
    if (!ok) return 1;

    int gb_argc = static_cast<int>(gb_argv.size());
    benchmark::Initialize(&gb_argc, gb_argv.data());
    if (gb_argc > 1) {
        std::cerr << argv[0] << ": unknown flag '" << gb_argv[1] << "'\n";
        return 2;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
