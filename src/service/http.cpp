#include "service/http.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/json_io.hpp"
#include "util/fault.hpp"

namespace sipre::service::http
{

bool
iequals(std::string_view a, std::string_view b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::tolower(static_cast<unsigned char>(a[i])) !=
            std::tolower(static_cast<unsigned char>(b[i])))
            return false;
    }
    return true;
}

namespace
{

std::string_view
trim(std::string_view s)
{
    while (!s.empty() && (s.front() == ' ' || s.front() == '\t'))
        s.remove_prefix(1);
    while (!s.empty() && (s.back() == ' ' || s.back() == '\t'))
        s.remove_suffix(1);
    return s;
}

const std::string *
findHeader(const std::vector<std::pair<std::string, std::string>> &headers,
           std::string_view name)
{
    for (const auto &[key, value] : headers) {
        if (iequals(key, name))
            return &value;
    }
    return nullptr;
}

/**
 * Parse the header block shared by requests and responses. Returns the
 * offset just past the blank line, or 0 when more bytes are needed;
 * sets `bad` on malformed input.
 */
std::size_t
parseHeaderBlock(std::string_view buffer, std::string &start_line,
                 std::vector<std::pair<std::string, std::string>> &headers,
                 bool &bad, std::string &error)
{
    bad = false;
    const std::size_t end = buffer.find("\r\n\r\n");
    if (end == std::string_view::npos) {
        if (buffer.size() > kMaxHeaderBytes) {
            bad = true;
            error = "header block exceeds limit";
        }
        return 0;
    }
    if (end + 4 > kMaxHeaderBytes) {
        bad = true;
        error = "header block exceeds limit";
        return 0;
    }
    const std::string_view block = buffer.substr(0, end);
    std::size_t pos = block.find("\r\n");
    start_line = std::string(
        block.substr(0, pos == std::string_view::npos ? block.size() : pos));
    headers.clear();
    while (pos != std::string_view::npos) {
        pos += 2;
        std::size_t next = block.find("\r\n", pos);
        const std::string_view line = block.substr(
            pos, (next == std::string_view::npos ? block.size() : next) -
                     pos);
        pos = next;
        if (line.empty())
            continue;
        const std::size_t colon = line.find(':');
        if (colon == std::string_view::npos) {
            bad = true;
            error = "header line without ':'";
            return 0;
        }
        headers.emplace_back(std::string(trim(line.substr(0, colon))),
                             std::string(trim(line.substr(colon + 1))));
    }
    return end + 4;
}

/** Content-Length lookup: 0 when absent, SIZE_MAX on a bad value. */
std::size_t
contentLength(
    const std::vector<std::pair<std::string, std::string>> &headers)
{
    const std::string *value = findHeader(headers, "Content-Length");
    if (value == nullptr)
        return 0;
    if (value->empty())
        return static_cast<std::size_t>(-1);
    std::size_t length = 0;
    for (const char c : *value) {
        if (!std::isdigit(static_cast<unsigned char>(c)))
            return static_cast<std::size_t>(-1);
        length = length * 10 + static_cast<std::size_t>(c - '0');
        if (length > kMaxBodyBytes)
            return static_cast<std::size_t>(-1);
    }
    return length;
}

} // namespace

bool
headerHasToken(std::string_view value, std::string_view token)
{
    while (!value.empty()) {
        const std::size_t comma = value.find(',');
        const std::string_view element = trim(value.substr(0, comma));
        if (iequals(element, token))
            return true;
        if (comma == std::string_view::npos)
            break;
        value.remove_prefix(comma + 1);
    }
    return false;
}

const std::string *
Request::header(std::string_view name) const
{
    return findHeader(headers, name);
}

const std::string *
Response::header(std::string_view name) const
{
    return findHeader(headers, name);
}

std::string
prometheusSummary(std::string_view name,
                  const LatencySummary::Snapshot &summary)
{
    const std::string n(name);
    return "# TYPE " + n + " summary\n" + n + "_count " +
           std::to_string(summary.count) + "\n" + n + "_sum " +
           jsonDouble(summary.sum_us) + "\n" + n + "{quantile=\"0.5\"} " +
           std::to_string(summary.p50_us) + "\n" + n +
           "{quantile=\"0.9\"} " + std::to_string(summary.p90_us) + "\n" +
           n + "{quantile=\"0.99\"} " + std::to_string(summary.p99_us) +
           "\n";
}

const char *
reasonPhrase(int status)
{
    switch (status) {
    case 200: return "OK";
    case 202: return "Accepted";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
    }
}

ParseStatus
parseRequest(std::string_view buffer, Request &out, std::size_t &consumed,
             std::string &error)
{
    std::string start_line;
    bool bad = false;
    const std::size_t header_end =
        parseHeaderBlock(buffer, start_line, out.headers, bad, error);
    if (bad)
        return ParseStatus::kBad;
    if (header_end == 0)
        return ParseStatus::kNeedMore;

    // METHOD SP target SP HTTP/1.x
    const std::size_t sp1 = start_line.find(' ');
    const std::size_t sp2 =
        sp1 == std::string::npos ? std::string::npos
                                 : start_line.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos) {
        error = "malformed request line";
        return ParseStatus::kBad;
    }
    out.method = start_line.substr(0, sp1);
    out.target = start_line.substr(sp1 + 1, sp2 - sp1 - 1);
    out.version = start_line.substr(sp2 + 1);
    if (out.version.rfind("HTTP/1.", 0) != 0) {
        error = "unsupported HTTP version";
        return ParseStatus::kBad;
    }

    const std::size_t length = contentLength(out.headers);
    if (length == static_cast<std::size_t>(-1)) {
        error = "bad Content-Length";
        return ParseStatus::kBad;
    }
    if (buffer.size() < header_end + length)
        return ParseStatus::kNeedMore;
    out.body = std::string(buffer.substr(header_end, length));
    consumed = header_end + length;
    return ParseStatus::kOk;
}

ParseStatus
parseResponse(std::string_view buffer, Response &out, std::size_t &consumed,
              std::string &error)
{
    std::string start_line;
    bool bad = false;
    const std::size_t header_end =
        parseHeaderBlock(buffer, start_line, out.headers, bad, error);
    if (bad)
        return ParseStatus::kBad;
    if (header_end == 0)
        return ParseStatus::kNeedMore;

    // HTTP/1.x SP status SP reason
    const std::size_t sp1 = start_line.find(' ');
    if (sp1 == std::string::npos || sp1 + 4 > start_line.size()) {
        error = "malformed status line";
        return ParseStatus::kBad;
    }
    out.status = 0;
    for (std::size_t i = sp1 + 1;
         i < start_line.size() && start_line[i] != ' '; ++i) {
        if (!std::isdigit(static_cast<unsigned char>(start_line[i]))) {
            error = "malformed status code";
            return ParseStatus::kBad;
        }
        out.status = out.status * 10 + (start_line[i] - '0');
    }

    const std::size_t length = contentLength(out.headers);
    if (length == static_cast<std::size_t>(-1)) {
        error = "bad Content-Length";
        return ParseStatus::kBad;
    }
    if (buffer.size() < header_end + length)
        return ParseStatus::kNeedMore;
    out.body = std::string(buffer.substr(header_end, length));
    consumed = header_end + length;
    return ParseStatus::kOk;
}

std::string
serializeRequest(const Request &request)
{
    std::string out = request.method + " " + request.target + " " +
                      request.version + "\r\n";
    for (const auto &[key, value] : request.headers)
        out += key + ": " + value + "\r\n";
    if (request.header("Content-Length") == nullptr)
        out += "Content-Length: " + std::to_string(request.body.size()) +
               "\r\n";
    out += "\r\n";
    out += request.body;
    return out;
}

std::string
serializeResponse(const Response &response)
{
    std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                      std::string(reasonPhrase(response.status)) + "\r\n";
    for (const auto &[key, value] : response.headers)
        out += key + ": " + value + "\r\n";
    if (response.header("Content-Length") == nullptr)
        out += "Content-Length: " +
               std::to_string(response.body.size()) + "\r\n";
    out += "\r\n";
    out += response.body;
    return out;
}

int
dialTcp(const std::string &host, std::uint16_t port, std::string *error)
{
    // Fault site: outbound connects. Lets the chaos suite model an
    // unreachable or slow-to-accept peer without needing a real dead
    // host (a `fail` here is what a SIGKILLed node looks like to its
    // cluster peers).
    if (const fault::Decision d = fault::at(fault::Site::kConnect)) {
        fault::applyDelay(d);
        if (d.fail) {
            if (error)
                *error = "connect: injected connect fault";
            return -1;
        }
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        if (error)
            *error = std::string("socket: ") + std::strerror(errno);
        return -1;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        if (error)
            *error = "bad host address " + host;
        ::close(fd);
        return -1;
    }
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof addr) != 0) {
        if (error)
            *error = std::string("connect: ") + std::strerror(errno);
        ::close(fd);
        return -1;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return fd;
}

namespace
{

/** Remaining milliseconds before `deadline`; clamped at 0. */
int
remainingMs(std::chrono::steady_clock::time_point deadline)
{
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    return static_cast<int>(std::max<std::int64_t>(0, left.count()));
}

/** poll one fd for `events`; 1 ready, 0 timeout, -1 error. */
int
pollOne(int fd, short events, int timeout_ms)
{
    for (;;) {
        pollfd pfd{fd, events, 0};
        const int ready = ::poll(&pfd, 1, timeout_ms);
        if (ready < 0 && errno == EINTR)
            continue;
        return ready;
    }
}

} // namespace

IoStatus
recvSome(int fd, std::string &buffer, int timeout_ms)
{
    std::size_t want = 16384;
    if (const fault::Decision d = fault::at(fault::Site::kRecv)) {
        fault::applyDelay(d);
        if (d.fail) {
            errno = ECONNRESET;
            return IoStatus::kError;
        }
        if (d.shorten)
            want = 1; // dribble one byte to the parser
    }
    if (timeout_ms >= 0) {
        const int ready = pollOne(fd, POLLIN, timeout_ms);
        if (ready == 0)
            return IoStatus::kTimeout;
        if (ready < 0)
            return IoStatus::kError;
    }
    char chunk[16384];
    for (;;) {
        const ssize_t n = ::recv(fd, chunk, want, 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return IoStatus::kError;
        }
        if (n == 0)
            return IoStatus::kClosed;
        buffer.append(chunk, static_cast<std::size_t>(n));
        return IoStatus::kOk;
    }
}

bool
sendAll(int fd, std::string_view data, int timeout_ms)
{
    bool shorten = false;
    if (const fault::Decision d = fault::at(fault::Site::kSend)) {
        fault::applyDelay(d);
        if (d.fail) {
            errno = ECONNRESET;
            return false;
        }
        shorten = d.shorten;
    }
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(
                              timeout_ms >= 0 ? timeout_ms : 0);
    while (!data.empty()) {
        // A "short" fault splits the first write so the partial-write
        // resume path runs even when the kernel would take it whole.
        std::size_t chunk = data.size();
        if (shorten && chunk > 1) {
            chunk = (chunk + 1) / 2;
            shorten = false;
        }
        // With a deadline we must not block inside send(): ask for
        // EAGAIN instead and wait for writability with poll below.
        const int flags =
            MSG_NOSIGNAL | (timeout_ms >= 0 ? MSG_DONTWAIT : 0);
        const ssize_t n = ::send(fd, data.data(), chunk, flags);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if ((errno == EAGAIN || errno == EWOULDBLOCK) &&
                timeout_ms >= 0) {
                const int left = remainingMs(deadline);
                if (left == 0 || pollOne(fd, POLLOUT, left) == 0) {
                    errno = ETIMEDOUT;
                    return false;
                }
                continue;
            }
            return false;
        }
        data.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
}

bool
roundTrip(int fd, const Request &request, Response &response,
          std::string *error, int timeout_ms)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(
                              timeout_ms >= 0 ? timeout_ms : 0);
    if (!sendAll(fd, serializeRequest(request), timeout_ms)) {
        if (error)
            *error = std::string("send: ") + std::strerror(errno);
        return false;
    }
    std::string buffer;
    for (;;) {
        std::size_t consumed = 0;
        std::string parse_error;
        const ParseStatus status =
            parseResponse(buffer, response, consumed, parse_error);
        if (status == ParseStatus::kOk)
            return true;
        if (status == ParseStatus::kBad) {
            if (error)
                *error = "bad response: " + parse_error;
            return false;
        }
        const int wait = timeout_ms >= 0 ? remainingMs(deadline) : -1;
        switch (recvSome(fd, buffer, wait)) {
        case IoStatus::kOk:
            break;
        case IoStatus::kClosed:
            if (error)
                *error = "connection closed mid-response";
            return false;
        case IoStatus::kTimeout:
            if (error)
                *error = "request timed out";
            errno = ETIMEDOUT;
            return false;
        case IoStatus::kError:
            if (error)
                *error = std::string("recv: ") + std::strerror(errno);
            return false;
        }
    }
}

} // namespace sipre::service::http
