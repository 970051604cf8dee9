/**
 * @file
 * Byte-identity referee for the two result serializations: every
 * `req&workload=public_srv_60&...` row of perfbench/golden.txt is
 * rebuilt as a SimRequest, run fresh, and the fnv1a64 digests of its
 * campaign text (writeSimResultText) and JSON (simResultToJson) must
 * equal the recorded ones. The rows cover base/asmdb/noovh/metadata x
 * ftq {2, 24} x cores {1, 2} plus hw_prefetcher=fdip, so single-core,
 * co-run and hwpf-carrying results are all pinned.
 *
 * Also the completeness check for the stats structs' field lists
 * (util/field_list.hpp): every member is listed, and each one, set on
 * its own, survives the text round-trip, appears under its name in the
 * JSON, is named by diffSimResults and is summed by mergeInto.
 */
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/json_io.hpp"
#include "core/options.hpp"
#include "core/result_compare.hpp"
#include "service/engine.hpp"
#include "service/request.hpp"

namespace sipre
{
namespace
{

std::uint64_t
fnv1a64(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
hex64(std::uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

/** One golden row: the request key and its two recorded digests. */
struct GoldenRow
{
    std::string key;
    std::string text;
    std::string json;
};

void
PrintTo(const GoldenRow &row, std::ostream *os)
{
    *os << row.key;
}

std::vector<GoldenRow>
publicSrvRows()
{
    std::vector<GoldenRow> rows;
    std::ifstream is(SIPRE_GOLDEN_FILE);
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("req&workload=public_srv_60&", 0) != 0)
            continue;
        GoldenRow row;
        std::istringstream fields(line);
        fields >> row.key >> row.text >> row.json;
        rows.push_back(row);
    }
    return rows;
}

/** The key spelling perfbench records a request under. */
std::string
requestKey(const service::SimRequest &r)
{
    std::ostringstream os;
    os << "req&workload=" << r.workload << "&instructions=" << r.instructions
       << "&ftq=" << r.ftq_entries << "&mode=" << simModeName(r.mode)
       << "&hw_prefetcher=" << hwPrefetcherName(r.hw_prefetcher)
       << "&cores=" << r.cores;
    return os.str();
}

/** Rebuild the request behind a key; every other knob is default. */
service::SimRequest
requestFromKey(const std::string &key)
{
    std::map<std::string, std::string> kv;
    std::istringstream parts(key);
    std::string part;
    while (std::getline(parts, part, '&')) {
        const std::size_t eq = part.find('=');
        if (eq != std::string::npos)
            kv[part.substr(0, eq)] = part.substr(eq + 1);
    }
    service::SimRequest r;
    r.workload = kv["workload"];
    r.instructions = std::stoull(kv["instructions"]);
    r.ftq_entries = static_cast<std::uint32_t>(std::stoul(kv["ftq"]));
    r.mode = parseSimMode(kv["mode"]).value();
    r.hw_prefetcher = parseHwPrefetcher(kv["hw_prefetcher"]).value();
    r.cores = static_cast<std::uint32_t>(std::stoul(kv["cores"]));
    return r;
}

class GoldenDigests : public ::testing::TestWithParam<GoldenRow>
{
};

TEST(ResultFormats, GoldenCoversEveryModeFtqCoresAndFdip)
{
    // 4 modes x ftq {2, 24} x cores {1, 2}, plus fdip at ftq {2, 24}.
    EXPECT_EQ(publicSrvRows().size(), 18u) << SIPRE_GOLDEN_FILE;
}

TEST_P(GoldenDigests, TextAndJsonMatchRecordedDigests)
{
    const GoldenRow &row = GetParam();
    const service::SimRequest request = requestFromKey(row.key);
    ASSERT_EQ(requestKey(request), row.key);

    const SimResult result = service::runSimRequest(request);
    std::ostringstream text;
    writeSimResultText(text, result);
    EXPECT_EQ(hex64(fnv1a64(text.str())), row.text) << row.key;
    EXPECT_EQ(hex64(fnv1a64(simResultToJson(result))), row.json)
        << row.key;
}

INSTANTIATE_TEST_SUITE_P(
    PublicSrv60, GoldenDigests, ::testing::ValuesIn(publicSrvRows()),
    [](const ::testing::TestParamInfo<GoldenRow> &row) {
        const service::SimRequest r = requestFromKey(row.param.key);
        return std::string(simModeName(r.mode)) + "_ftq" +
               std::to_string(r.ftq_entries) + "_" +
               hwPrefetcherName(r.hw_prefetcher) + "_c" +
               std::to_string(r.cores);
    });

TEST(ResultFormats, JsonDoubleMatchesMaxDigits10Stream)
{
    std::vector<double> values = {0.0,    -0.0,   1.0,     0.1,
                                  1e-300, 1e300,  2.5e-7,  123456789.125,
                                  1.0 / 3, -2.0 / 3, 4.9e-324};
    std::uint64_t bits = 0x9e3779b97f4a7c15ULL;
    for (int i = 0; i < 2000; ++i) {
        bits ^= bits << 13;
        bits ^= bits >> 7;
        bits ^= bits << 17;
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof v);
        values.push_back(v);
        values.push_back(static_cast<double>(bits % 1000000) / 1024.0);
    }
    for (const double v : values) {
        if (!std::isfinite(v))
            continue;
        std::ostringstream os;
        os << std::setprecision(std::numeric_limits<double>::max_digits10)
           << v;
        EXPECT_EQ(jsonDouble(v), os.str());
    }
}

// ------------------------------------------------ field-list completeness

const JsonValue *
member(const JsonValue *object, const char *key)
{
    return object == nullptr ? nullptr : object->find(key);
}

/**
 * Where each stats struct sits in a SimResult: its diff path and the
 * SimResult member (also its JSON key unless Slot::json says otherwise).
 */
template <typename Stats> struct Slot;

template <> struct Slot<FrontendStats>
{
    static constexpr const char *kPath = "frontend";
    static FrontendStats &in(SimResult &r) { return r.frontend; }
};

template <> struct Slot<BackendStats>
{
    static constexpr const char *kPath = "backend";
    static BackendStats &in(SimResult &r) { return r.backend; }
};

template <> struct Slot<BranchUnitStats>
{
    static constexpr const char *kPath = "branch";
    static BranchUnitStats &in(SimResult &r) { return r.branch; }
};

template <> struct Slot<BtbStats>
{
    static constexpr const char *kPath = "btb";
    static BtbStats &in(SimResult &r) { return r.btb; }
};

template <> struct Slot<CacheStats>
{
    static constexpr const char *kPath = "l2";
    static CacheStats &in(SimResult &r) { return r.l2; }
};

template <> struct Slot<HwPrefetchCounters>
{
    static constexpr const char *kPath = "hwpf[0]";
    static HwPrefetchCounters &
    in(SimResult &r)
    {
        if (r.hwpf.empty())
            r.hwpf.emplace_back().name = "fdip";
        return r.hwpf[0];
    }
    static const JsonValue *
    json(const JsonValue *r)
    {
        const JsonValue *list = member(r, "hwpf");
        return list == nullptr || list->array.empty() ? nullptr
                                                      : &list->array[0];
    }
};

/** The one struct that is not per-core: only a co-run writes it. */
template <> struct Slot<DramStats>
{
    static constexpr const char *kPath = "shared_mem.dram";
    static DramStats &in(SimResult &r) { return r.shared_mem.dram; }
    static const JsonValue *json(const JsonValue *r)
    {
        return member(member(r, "shared_mem"), "dram");
    }
};

template <typename Stats>
constexpr bool kPerCore = !std::is_same_v<Stats, DramStats>;

template <typename Stats>
const JsonValue *
slotJson(const JsonValue *result)
{
    if constexpr (requires { Slot<Stats>::json(result); })
        return Slot<Stats>::json(result);
    else
        return member(result, Slot<Stats>::kPath);
}

void
poke(std::uint64_t &v, std::uint64_t x)
{
    v = x;
}

void
poke(std::string &v, std::uint64_t x)
{
    v = "component" + std::to_string(x);
}

void
poke(RunningStat &v, std::uint64_t x)
{
    v.add(static_cast<double>(x) + 0.25);
}

void
poke(Histogram &v, std::uint64_t x)
{
    v.add(x);
}

bool
jsonHolds(const JsonValue &j, std::uint64_t v)
{
    return j.isNumber() && j.number == static_cast<double>(v);
}

bool
jsonHolds(const JsonValue &j, const std::string &v)
{
    return j.isString() && j.string == v;
}

bool
jsonHolds(const JsonValue &j, const RunningStat &v)
{
    const JsonValue *count = j.find("count");
    const JsonValue *sum = j.find("sum");
    return count != nullptr && jsonHolds(*count, v.count()) &&
           sum != nullptr && sum->isNumber() && sum->number == v.sum();
}

bool
jsonHolds(const JsonValue &j, const Histogram &v)
{
    const JsonValue *sum = j.find("sum");
    return sum != nullptr && jsonHolds(*sum, v.sum());
}

bool
doubled(std::uint64_t sum, std::uint64_t one)
{
    return sum == 2 * one;
}

bool
doubled(const std::string &sum, const std::string &)
{
    return sum.empty(); // a name is the merge key, never summed
}

bool
doubled(const RunningStat &sum, const RunningStat &one)
{
    return sum.count() == 2 * one.count() && sum.sum() == 2 * one.sum();
}

bool
doubled(const Histogram &sum, const Histogram &one)
{
    return sum.total() == 2 * one.total() && sum.sum() == 2 * one.sum();
}

/** Calls `check(name, field...)` for member `index` of the structs. */
template <typename Check, typename... Stats>
void
atMember(std::size_t index, Check &&check, Stats &...s)
{
    std::size_t i = 0;
    forEachField(
        [&](const char *name, auto &...field) {
            if (i++ == index)
                check(name, field...);
        },
        s...);
}

template <typename Stats>
std::size_t
memberCount()
{
    const Stats s{};
    std::size_t n = 0;
    forEachField([&n](const char *, const auto &) { ++n; }, s);
    return n;
}

/**
 * A result shaped to carry Stats' slot: single-core, or a two-core
 * co-run whose second core (or shared_mem) holds the slot. Returns the
 * SimResult that holds the slot.
 */
template <typename Stats>
SimResult &
shape(SimResult &r, bool per_core)
{
    r.workload = "w";
    r.config_label = "c";
    SimResult *holder = &r;
    if (per_core || !kPerCore<Stats>) {
        const SimResult core = r;
        r.core_results.assign(2, core);
        if (per_core)
            holder = &r.core_results[1];
    }
    Slot<Stats>::in(*holder);
    return *holder;
}

template <typename Stats>
void
expectMemberIsWired(std::size_t index, bool per_core)
{
    const std::string path =
        std::string(per_core ? "core[1]." : "") + Slot<Stats>::kPath + ".";
    SimResult untouched;
    shape<Stats>(untouched, per_core);
    SimResult poked;
    Stats &stats = Slot<Stats>::in(shape<Stats>(poked, per_core));
    const char *name = "";
    atMember(
        index,
        [&](const char *n, auto &field) {
            name = n;
            poke(field, 100 + index);
        },
        stats);
    SCOPED_TRACE(path + name);

    // Text round-trip.
    std::stringstream text;
    writeSimResultText(text, poked);
    SimResult read;
    ASSERT_TRUE(readSimResultText(text, read));
    EXPECT_EQ(diffSimResults(poked, read), "");

    // JSON, under the member's name.
    JsonValue root;
    std::string error;
    ASSERT_TRUE(parseJson(simResultToJson(poked), root, error)) << error;
    const JsonValue *holder = &root;
    if (per_core) {
        const JsonValue *cores = root.find("core_results");
        ASSERT_TRUE(cores != nullptr && cores->array.size() == 2);
        holder = &cores->array[1];
    }
    const JsonValue *json = member(slotJson<Stats>(holder), name);
    ASSERT_NE(json, nullptr);
    atMember(
        index,
        [&](const char *, const auto &field) {
            EXPECT_TRUE(jsonHolds(*json, field));
        },
        std::as_const(stats));

    // The diff names it.
    const std::string diff = diffSimResults(poked, untouched);
    EXPECT_EQ(diff.rfind(path + name, 0), 0u) << diff;
    const std::size_t end = path.size() + std::string(name).size();
    EXPECT_TRUE(end < diff.size() && (diff[end] == ':' || diff[end] == '.'))
        << diff;

    // Merging sums it.
    Stats sum{};
    mergeInto(sum, stats);
    mergeInto(sum, stats);
    atMember(
        index,
        [](const char *, const auto &total, const auto &one) {
            EXPECT_TRUE(doubled(total, one));
        },
        std::as_const(sum), std::as_const(stats));
}

template <typename Stats> class FieldList : public ::testing::Test
{
};

using StatsTypes =
    ::testing::Types<FrontendStats, CacheStats, BackendStats,
                     BranchUnitStats, BtbStats, HwPrefetchCounters,
                     DramStats>;
TYPED_TEST_SUITE(FieldList, StatsTypes);

TYPED_TEST(FieldList, ListsEveryMemberOnce)
{
    const TypeParam s{};
    std::size_t bytes = 0;
    std::set<std::string> names;
    forEachField(
        [&](const char *name, const auto &field) {
            bytes += sizeof(field);
            EXPECT_TRUE(names.insert(name).second) << name;
        },
        s);
    // A member missing from the list leaves its bytes unaccounted for.
    EXPECT_EQ(bytes, sizeof(TypeParam));
}

TYPED_TEST(FieldList, EveryMemberRoundTripsIsNamedAndMerges)
{
    for (std::size_t i = 0; i < memberCount<TypeParam>(); ++i) {
        expectMemberIsWired<TypeParam>(i, /*per_core=*/false);
        if (kPerCore<TypeParam>)
            expectMemberIsWired<TypeParam>(i, /*per_core=*/true);
    }
}

} // namespace
} // namespace sipre
