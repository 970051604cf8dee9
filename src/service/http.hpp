/**
 * @file
 * Minimal HTTP/1.1 over POSIX sockets: just enough protocol for the
 * simulation service and its loopback clients (request/response with
 * Content-Length bodies, keep-alive, case-insensitive headers). No
 * chunked encoding, no TLS, no external dependencies.
 */
#ifndef SIPRE_SERVICE_HTTP_HPP
#define SIPRE_SERVICE_HTTP_HPP

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/statistics.hpp"

namespace sipre::service::http
{

/** A parsed request (server side) or a request to send (client side). */
struct Request
{
    std::string method = "GET";
    std::string target = "/";
    std::string version = "HTTP/1.1";
    std::vector<std::pair<std::string, std::string>> headers;
    std::string body;

    /** Case-insensitive header lookup; nullptr when absent. */
    const std::string *header(std::string_view name) const;
};

/** A response to send (server side) or a parsed one (client side). */
struct Response
{
    int status = 200;
    std::vector<std::pair<std::string, std::string>> headers;
    std::string body;

    const std::string *header(std::string_view name) const;
};

/** Result of feeding a buffer to one of the incremental parsers. */
enum class ParseStatus : std::uint8_t {
    kOk,       ///< one complete message parsed; `consumed` bytes used
    kNeedMore, ///< buffer holds only a prefix of a message
    kBad       ///< malformed or over-limit message
};

/** Hard limits: a request this size is an error, not a workload. */
inline constexpr std::size_t kMaxHeaderBytes = 64 * 1024;
inline constexpr std::size_t kMaxBodyBytes = 1024 * 1024;

/** Canonical reason phrase for the handful of statuses we emit. */
const char *reasonPhrase(int status);

/**
 * One latency summary in the /metrics text format: the TYPE line, then
 * `<name>_count`, `<name>_sum` and the 0.5/0.9/0.99 quantiles.
 */
std::string prometheusSummary(std::string_view name,
                              const LatencySummary::Snapshot &summary);

/** ASCII case-insensitive string equality (header names and tokens). */
bool iequals(std::string_view a, std::string_view b);

/**
 * True when the comma-separated header value contains `token`,
 * case-insensitively (RFC 9110 list syntax, e.g. "Connection: Close"
 * or "Connection: keep-alive, Close").
 */
bool headerHasToken(std::string_view value, std::string_view token);

/** Parse one complete request from the front of `buffer`. */
ParseStatus parseRequest(std::string_view buffer, Request &out,
                         std::size_t &consumed, std::string &error);

/** Parse one complete response from the front of `buffer`. */
ParseStatus parseResponse(std::string_view buffer, Response &out,
                          std::size_t &consumed, std::string &error);

/** Serialize, filling in Content-Length (and Connection if absent). */
std::string serializeRequest(const Request &request);
std::string serializeResponse(const Response &response);

// ----------------------------------------------------- socket utilities

/**
 * Blocking TCP connect to host:port (numeric IPv4 host). Returns the
 * fd, or -1 with `error` set.
 */
int dialTcp(const std::string &host, std::uint16_t port,
            std::string *error);

/** How one socket read resolved (see recvSome). */
enum class IoStatus : std::uint8_t {
    kOk,      ///< at least one byte appended
    kClosed,  ///< orderly EOF from the peer
    kTimeout, ///< deadline expired with nothing to read
    kError    ///< transport error (errno set)
};

/**
 * Read whatever is available on `fd` into `buffer` (appending),
 * waiting at most `timeout_ms` for the first byte (-1 blocks
 * indefinitely). The `recv` fault-injection site wraps the call.
 */
IoStatus recvSome(int fd, std::string &buffer, int timeout_ms = -1);

/**
 * Write the whole buffer, retrying on short writes / EINTR. With a
 * non-negative `timeout_ms`, progress is bounded by a poll-based
 * deadline: a peer that stops reading makes this fail with
 * errno == ETIMEDOUT instead of blocking the thread forever. The
 * `send` fault-injection site wraps the call (a "short" fault forces
 * the partial-write path).
 */
bool sendAll(int fd, std::string_view data, int timeout_ms = -1);

/**
 * Issue one request over an open connection and read one response
 * (keep-alive friendly). Returns false on transport or parse failure.
 * A non-negative `timeout_ms` bounds the whole exchange.
 */
bool roundTrip(int fd, const Request &request, Response &response,
               std::string *error, int timeout_ms = -1);

} // namespace sipre::service::http

#endif // SIPRE_SERVICE_HTTP_HPP
