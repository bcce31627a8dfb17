// Per-layer probes for the traced run. Each is a direct call into one
// module's public functions, timed from here: the program itself carries
// no instrumentation. Also: the memcpy roofline reference, the shard
// request replay that reconciles the shard path's stages against the
// end-to-end latency, and the span summary.

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/synthetic.hpp"
#include "mesh/faults.hpp"
#include "runtime/thread_pool.hpp"
#include "svc/cache.hpp"
#include "svc/hash.hpp"
#include "svc/service.hpp"
#include "svc/shard/transport.hpp"
#include "svc/shard/wire.hpp"
#include "wavelet/threads_dwt.hpp"

namespace perfbench {
namespace {

using wavehpc::core::BoundaryMode;
using wavehpc::core::FilterPair;
using wavehpc::core::ImageF;
using wavehpc::core::Pyramid;
namespace wire = wavehpc::svc::shard::wire;

constexpr std::size_t kCoreEdge = 512;  // core/wavelet probes use the paper's size

/// Floating-point operations per input pixel of the resolved kernel,
/// computed from the filter length and level count (not measured).
double ops_per_px(int taps, int levels, wavehpc::core::DwtKernel k) {
    // Per level and input pixel: convolve does taps multiply-adds in the
    // row pass and again in the column pass (4*taps flops); the lifting
    // lattice does taps/2 two-FMA stages plus a scale per sample pair in
    // each pass (2*(taps+1) flops). Level l sees 4^-l of the pixels.
    const double per_level = k == wavehpc::core::DwtKernel::Lifting ? 2.0 * (taps + 1) : 4.0 * taps;
    double share = 0.0;
    for (int l = 0; l < levels; ++l) share += 1.0 / static_cast<double>(1 << (2 * l));
    return per_level * share;
}

/// Bytes moved per input pixel by the fused level sweeps (computed): the
/// row pass reads the plane and writes both row bands, the column pass
/// reads them and writes the four subbands, 16 bytes per pixel per level.
double bytes_per_px(int levels) {
    double share = 0.0;
    for (int l = 0; l < levels; ++l) share += 1.0 / static_cast<double>(1 << (2 * l));
    return 16.0 * share;
}

std::size_t llc_bytes() {
    const long s = sysconf(_SC_LEVEL3_CACHE_SIZE);
    if (s > 0) return static_cast<std::size_t>(s);
    std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index3/size");
    std::string v;
    if (in >> v && !v.empty()) {
        const std::size_t n = std::strtoull(v.c_str(), nullptr, 10);
        const char unit = v.back();
        return unit == 'K' ? n << 10 : unit == 'M' ? n << 20 : n;
    }
    return std::size_t{32} << 20;
}

void probe_core(Report& rep) {
    const ImageF img = wavehpc::core::landsat_tm_like(kCoreEdge, kCoreEdge, 7);
    const double px = static_cast<double>(kCoreEdge * kCoreEdge);
    double achieved_gb_s = 0.0;
    for (const auto& m : kTable1) {
        const FilterPair fp = FilterPair::daubechies(m.taps);
        const auto kernel = wavehpc::core::resolve_dwt_kernel(wavehpc::core::DwtKernel::Auto, fp);
        const std::string ns_key = std::string("core.ns_per_px.") + m.key;
        if (rep.metrics.count(ns_key) == 0) {
            const double s = median_seconds(41, [&] {
                (void)wavehpc::core::decompose(img, fp, m.levels, BoundaryMode::Periodic);
            });
            rep.set(ns_key, s * 1e9 / px, "ns/px", 41);
        }
        const double bpp = bytes_per_px(m.levels);
        rep.set(std::string("core.ops_per_px.") + m.key, ops_per_px(m.taps, m.levels, kernel), "flop/px");
        rep.set(std::string("core.bytes_per_px.") + m.key, bpp, "B/px");
        achieved_gb_s += bpp / rep.metrics[ns_key].value / static_cast<double>(kMixCount);
    }

    // Roofline reference: memcpy on arrays at least 4x the last-level cache.
    const std::size_t llc = llc_bytes();
    const std::size_t bytes = std::max<std::size_t>(4 * llc, std::size_t{64} << 20);
    std::vector<char> src(bytes, 1), dst(bytes, 0);
    const double s = median_seconds(5, [&] { std::memcpy(dst.data(), src.data(), bytes); });
    const double gb_s = 2.0 * static_cast<double>(bytes) / s / 1e9;  // read + write
    rep.set("core.memcpy_gb_s", gb_s, "GB/s", 5);
    rep.config["memcpy_array_mib"] = std::to_string(bytes >> 20);
    rep.config["llc_mib"] = std::to_string(llc >> 20);
    rep.set("core.roofline_share", achieved_gb_s / gb_s, "share");
}

void probe_wavelet(Report& rep) {
    wavehpc::runtime::ThreadPool pool(nproc());
    std::vector<ImageF> imgs;
    for (std::uint64_t i = 0; i < 8; ++i) imgs.push_back(wavehpc::core::landsat_tm_like(kCoreEdge, kCoreEdge, 20 + i));
    std::vector<const ImageF*> ptrs;
    for (const auto& im : imgs) ptrs.push_back(&im);
    double batch_ms = 0.0;
    for (const auto& m : kTable1) {
        const FilterPair fp = FilterPair::daubechies(m.taps);
        const std::string key = std::string("wavelet.parallel_ms.") + m.key;
        if (rep.metrics.count(key) == 0) {
            const double s = median_seconds(41, [&] {
                (void)wavehpc::wavelet::decompose_parallel(imgs[0], fp, m.levels, BoundaryMode::Periodic, pool);
            });
            rep.set(key, s * 1e3, "ms", 41);
        }
        const double b = median_seconds(9, [&] {
            (void)wavehpc::wavelet::decompose_batch(ptrs, fp, m.levels, BoundaryMode::Periodic, &pool);
        });
        batch_ms += b * 1e3 / static_cast<double>(ptrs.size()) / static_cast<double>(kMixCount);
    }
    rep.set("wavelet.batch_ms_per_image", batch_ms, "ms", 9);
}

void probe_svc_and_wire(std::size_t edge, Report& rep) {
    const auto img = std::make_shared<const ImageF>(wavehpc::core::landsat_tm_like(edge, edge, 9));
    const FilterPair fp = FilterPair::daubechies(8);
    const Pyramid pyr = wavehpc::core::decompose(*img, fp, 1, BoundaryMode::Periodic);
    constexpr int kReps = 101;

    std::uint64_t lo = 0, hi = 0;
    rep.set("svc.digest_us", median_seconds(kReps, [&] { wavehpc::svc::content_digest(*img, lo, hi); }) * 1e6, "us", kReps);
    std::uint32_t crc = 0;
    rep.set("svc.pyramid_crc_us", median_seconds(kReps, [&] { crc = wavehpc::svc::pyramid_crc32(pyr); }) * 1e6, "us", kReps);

    wavehpc::svc::TransformRequest req;
    req.image = img;  // F8/L1, the request defaults
    std::vector<std::byte> payload, frame;
    rep.set("shard.wire.encode_request_us",
            median_seconds(kReps, [&] { payload = wire::encode_request_payload(req, Clock::now()); }) * 1e6, "us", kReps);
    wire::Header h;
    h.request_id = 1;
    rep.set("shard.wire.seal_us", median_seconds(kReps, [&] { frame = wire::seal(h, payload); }) * 1e6, "us", kReps);
    rep.set("shard.wire.unseal_us", median_seconds(kReps, [&] { (void)wire::try_unseal(frame); }) * 1e6, "us", kReps);
    rep.set("shard.wire.decode_request_us",
            median_seconds(kReps, [&] { (void)wire::decode_request_payload(payload, Clock::now()); }) * 1e6, "us", kReps);

    auto result = std::make_shared<wavehpc::svc::TransformResult>();
    result->pyramid = pyr;
    result->crc32 = crc;
    wavehpc::svc::TransformReply reply;
    reply.result = result;
    std::vector<std::byte> reply_payload;
    rep.set("shard.wire.encode_reply_us",
            median_seconds(kReps, [&] { reply_payload = wire::encode_reply_payload(reply); }) * 1e6, "us", kReps);
    rep.set("shard.wire.decode_reply_us",
            median_seconds(kReps, [&] { (void)wire::decode_reply_payload(reply_payload); }) * 1e6, "us", kReps);

    std::uint32_t c = 0;
    const double crc_s = median_seconds(kReps, [&] { c = wavehpc::mesh::crc32(frame); });
    rep.set("mesh.crc32_mb_s", static_cast<double>(frame.size()) / crc_s / 1e6, "MB/s", kReps);

    // Transport: a request-sized frame under ARQ to a shard whose handler
    // answers with an empty payload, from 1 caller and from nproc callers.
    const int shards = static_cast<int>(nproc());
    wavehpc::svc::shard::ShardTransport tr(shards + 1, 1);
    for (int s = 0; s < shards; ++s) {
        tr.set_handler(s, wire::kRequestTag,
                       [](int, std::span<const std::byte>) { return std::vector<std::byte>{}; });
    }
    const auto rpc_us = [&](int callers) {
        std::vector<Samples> per(static_cast<std::size_t>(callers));
        std::vector<std::thread> th;
        for (int t = 0; t < callers; ++t) {
            th.emplace_back([&, t] {
                for (int i = 0; i < 60; ++i) {
                    const auto t0 = Clock::now();
                    (void)tr.rpc(shards, t % shards, wire::kRequestTag, frame);
                    per[static_cast<std::size_t>(t)].add(seconds_between(t0, Clock::now()));
                }
            });
        }
        for (auto& x : th) x.join();
        Samples all;
        for (const auto& p : per) all.append(p);
        return std::make_pair(all.median() * 1e6, all.size());
    };
    const auto c1 = rpc_us(1);
    rep.set("shard.transport.rpc_us.c1", c1.first, "us", c1.second);
    const auto cn = rpc_us(shards);
    rep.set("shard.transport.rpc_us.cN", cn.first, "us", cn.second);
}

void write_spans(const std::string& path, const std::vector<Span>& spans,
                 const std::vector<std::string>& names) {
    std::ofstream out(path);
    for (const auto& s : spans) {
        out << "{\"name\": \"" << names[s.name] << "\", \"id\": " << s.id << ", \"parent\": " << s.parent
            << ", \"request\": " << s.request << ", \"t0_ns\": " << s.t0_ns << ", \"t1_ns\": " << s.t1_ns
            << "}\n";
    }
}

std::string trace_path(const RunArgs& args, const std::string& what) {
    if (args.out_dir.empty()) return {};
    return args.out_dir + "/" + what + "_" + args.workload + "_" + std::to_string(args.seed) + ".jsonl";
}

}  // namespace

void probe_layers(std::size_t edge, Report& rep) {
    probe_core(rep);
    probe_wavelet(rep);
    probe_svc_and_wire(edge, rep);
}

void summarize_trace(const RunArgs& args, std::uint64_t ops, Report& rep) {
    const auto spans = Tracer::get().take();
    const auto names = Tracer::get().names();
    std::map<std::uint32_t, double> child_s;  // span id -> covered by children
    for (const auto& s : spans) {
        if (s.parent != 0) child_s[s.parent] += static_cast<double>(s.t1_ns - s.t0_ns) / 1e9;
    }
    std::map<std::string, double> self_s;
    for (const auto& s : spans) {
        const std::string& n = names[s.name];
        const double d = static_cast<double>(s.t1_ns - s.t0_ns) / 1e9;
        const auto it = child_s.find(s.id);
        self_s[n.substr(0, n.find('.'))] += d - (it == child_s.end() ? 0.0 : it->second);
    }
    for (const char* layer : {"core", "wavelet", "tile", "svc", "shard", "bench"}) {
        rep.set(std::string("trace.self_ms_per_op.") + layer,
                ops > 0 ? self_s[layer] * 1e3 / static_cast<double>(ops) : 0.0, "ms", ops);
    }
    rep.config["trace_spans"] = std::to_string(spans.size());
    const std::string path = trace_path(args, "spans");
    if (!path.empty()) write_spans(path, spans, names);
}

/// Replay one shard_cold request path from the public wire, transport and
/// service calls, each spanned, and set the stage sum against the measured
/// end-to-end p50 at the lowest step.
void reconcile_shard_path(const RunArgs& args, std::size_t edge, double p50_ms, Report& rep) {
    wavehpc::runtime::ThreadPool pool(nproc());
    wavehpc::svc::PyramidService svc(pool);
    wavehpc::svc::shard::ShardTransport tr(2, 1);  // node 0 = shard, node 1 = router
    Tracer& tracer = Tracer::get();
    const auto sp = [&](const char* n) { return tracer.intern(n); };
    const std::uint32_t s_encode_req = sp("shard.wire.encode_request"), s_seal = sp("shard.wire.seal"),
                        s_rpc = sp("shard.transport.rpc"), s_unseal = sp("shard.wire.unseal"),
                        s_decode_req = sp("shard.wire.decode_request"), s_submit = sp("svc.submit"),
                        s_wait = sp("svc.compute_wait"), s_encode_rep = sp("shard.wire.encode_reply"),
                        s_decode_rep = sp("shard.wire.decode_reply");

    wavehpc::svc::TransformFuture pending;
    std::uint64_t rid = 0;
    tr.set_handler(0, wire::kRequestTag, [&](int, std::span<const std::byte> f) {
        const auto un = [&] { ScopedSpan s(s_unseal, rid); return wire::try_unseal(f); }();
        wavehpc::svc::TransformRequest req;
        {
            ScopedSpan s(s_decode_req, rid);
            req = wire::decode_request_payload(un->payload, Clock::now());
        }
        ScopedSpan s(s_submit, rid);
        pending = svc.submit(std::move(req)).future;
        return wire::encode_admit_payload(wire::AdmitWire{wire::AdmitStatus::Accepted, {}, 0.0});
    });
    wavehpc::svc::TransformReply received;
    tr.set_handler(1, wire::kReplyTag, [&](int, std::span<const std::byte> f) {
        const auto un = [&] { ScopedSpan s(s_unseal, rid); return wire::try_unseal(f); }();
        ScopedSpan s(s_decode_rep, rid);
        received = wire::decode_reply_payload(un->payload).reply;
        return std::vector<std::byte>{};
    });

    const ImageF base = wavehpc::core::landsat_tm_like(edge, edge, 11);
    Samples encode_ms, seal_ms, rpc_ms, compute_ms, sum_ms;
    constexpr int kReplays = 30;
    tracer.enable(true);
    for (int i = 0; i < kReplays; ++i) {
        rid = static_cast<std::uint64_t>(i) + 1;
        auto img = std::make_shared<ImageF>(base);
        (*img)(0, 0) += static_cast<float>(i + 1);  // a distinct scene: a cache miss
        const auto& m = kTable1[static_cast<std::size_t>(i) % kMixCount];
        wavehpc::svc::TransformRequest req;
        req.image = img;
        req.taps = m.taps;
        req.levels = m.levels;
        const auto lap = [](Clock::time_point& t) {
            const auto now = Clock::now();
            const double ms = seconds_between(t, now) * 1e3;
            t = now;
            return ms;
        };
        double enc = 0, seal = 0, rpc = 0, comp = 0;
        auto t = Clock::now();
        std::vector<std::byte> payload, frame;
        { ScopedSpan s(s_encode_req, rid); payload = wire::encode_request_payload(req, Clock::now()); }
        enc += lap(t);
        wire::Header h;
        h.request_id = rid;
        h.dst = 0;
        h.src = 1;
        { ScopedSpan s(s_seal, rid); frame = wire::seal(h, payload); }
        seal += lap(t);
        { ScopedSpan s(s_rpc, rid); (void)tr.rpc(1, 0, wire::kRequestTag, frame); }
        rpc += lap(t);
        wavehpc::svc::TransformReply reply;
        { ScopedSpan s(s_wait, rid); reply = pending.get(); }
        comp += lap(t);
        { ScopedSpan s(s_encode_rep, rid); payload = wire::encode_reply_payload(reply); }
        enc += lap(t);
        h.kind = wire::MsgKind::Reply;
        h.src = 0;
        h.dst = 1;
        { ScopedSpan s(s_seal, rid); frame = wire::seal(h, payload); }
        seal += lap(t);
        { ScopedSpan s(s_rpc, rid); (void)tr.rpc(0, 1, wire::kReplyTag, frame); }
        rpc += lap(t);
        encode_ms.add(enc);
        seal_ms.add(seal);
        rpc_ms.add(rpc);
        compute_ms.add(comp);
        sum_ms.add(enc + seal + rpc + comp);
    }
    tracer.enable(false);
    svc.shutdown();
    const auto spans = tracer.take();
    const std::string path = trace_path(args, "replay");
    if (!path.empty()) write_spans(path, spans, tracer.names());

    rep.set("shard.stages.encode_ms", encode_ms.median(), "ms", kReplays);
    rep.set("shard.stages.seal_ms", seal_ms.median(), "ms", kReplays);
    rep.set("shard.stages.rpc_ms", rpc_ms.median(), "ms", kReplays);
    rep.set("shard.stages.compute_ms", compute_ms.median(), "ms", kReplays);
    rep.set("shard.stages.sum_ms", sum_ms.median(), "ms", kReplays);
    rep.set("shard.stages.p50_ms", p50_ms, "ms");
    rep.set("shard.stages.unexplained_ms", p50_ms - sum_ms.median(), "ms");
}

}  // namespace perfbench
