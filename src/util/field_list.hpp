/**
 * @file
 * Field lists for the stats structs a SimResult carries. Each struct
 * declares one `forEachField(visit, s...)` next to its definition that
 * calls `visit("member", s.member...)` once per member, in campaign-text
 * order. Being variadic, the one list drives a writer (one const
 * struct), a reader (one mutable struct), the diff (two const) and the
 * co-run merge (into, from). A member is a std::uint64_t counter, a
 * RunningStat, a Histogram, or a std::string naming the struct.
 */
#ifndef SIPRE_UTIL_FIELD_LIST_HPP
#define SIPRE_UTIL_FIELD_LIST_HPP

#include <concepts>
#include <string>
#include <type_traits>

namespace sipre
{

/** `S` is `Stats` or `const Stats`: one argument of a field list. */
template <typename S, typename Stats>
concept FieldsOf = std::same_as<std::remove_const_t<S>, Stats>;

/** A struct with a field list. */
template <typename Stats>
concept HasFieldList = requires(const Stats &s) {
    forEachField([](const char *, const auto &) {}, s);
};

/**
 * Fold `from` into `into`, member by member (co-run aggregation).
 * Counters add, RunningStats and Histograms merge, and a name is left
 * alone: it is what the two structs were matched on.
 */
template <HasFieldList Stats>
void
mergeInto(Stats &into, const Stats &from)
{
    forEachField(
        [](const char *, auto &a, const auto &b) {
            using T = std::remove_cvref_t<decltype(a)>;
            if constexpr (std::is_arithmetic_v<T>)
                a += b;
            else if constexpr (!std::is_same_v<T, std::string>)
                a.merge(b);
        },
        into, from);
}

} // namespace sipre

#endif // SIPRE_UTIL_FIELD_LIST_HPP
