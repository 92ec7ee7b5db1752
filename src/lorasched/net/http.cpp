#include "lorasched/net/http.h"

#include <sys/socket.h>
#include <sys/time.h>

#include <cstring>
#include <stdexcept>

namespace lorasched::net {

namespace {

constexpr std::size_t kMaxRequestHead = 8 * 1024;

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    default: return "OK";
  }
}

void send_all(Socket& socket, const std::string& bytes) {
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n = ::send(socket.fd(), bytes.data() + written,
                             bytes.size() - written, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;  // peer gone; nothing useful to do
    }
    written += static_cast<std::size_t>(n);
  }
}

void send_response(Socket& socket, const HttpResponse& response) {
  std::string head = "HTTP/1.1 " + std::to_string(response.status) + " " +
                     status_text(response.status) +
                     "\r\nContent-Type: " + response.content_type +
                     "\r\nContent-Length: " +
                     std::to_string(response.body.size()) +
                     "\r\nConnection: close\r\n\r\n";
  send_all(socket, head + response.body);
}

}  // namespace

HttpServer::HttpServer(std::uint16_t port, bool loopback_only)
    : listener_(port, loopback_only) {}

HttpServer::~HttpServer() { stop(); }

void HttpServer::handle(std::string path, HttpHandler handler) {
  if (started_.load(std::memory_order_acquire)) {
    // The accept thread reads handlers_ without a lock — the map must be
    // frozen before it starts.
    throw std::logic_error("HttpServer::handle() after start()");
  }
  handlers_[std::move(path)] = std::move(handler);
}

void HttpServer::start() {
  if (started_.exchange(true, std::memory_order_acq_rel)) return;
  accept_thread_ = std::thread(&HttpServer::accept_main, this);
}

void HttpServer::stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  listener_.interrupt();
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.close();
}

std::uint16_t HttpServer::port() const noexcept { return listener_.port(); }

void HttpServer::accept_main() {
  while (!stopping_.load(std::memory_order_acquire)) {
    Socket socket;
    try {
      socket = listener_.accept();
    } catch (const TransportError&) {
      return;  // interrupted (stop) or listener gone
    }
    timeval timeout{};
    timeout.tv_sec = 2;
    ::setsockopt(socket.fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                 sizeof(timeout));
    serve_one(std::move(socket));
  }
}

void HttpServer::serve_one(Socket socket) {
  std::string head;
  char chunk[1024];
  while (head.find("\r\n\r\n") == std::string::npos) {
    if (head.size() > kMaxRequestHead) {
      send_response(socket, HttpResponse{431, "text/plain; charset=utf-8",
                                         "request head too large\n"});
      return;
    }
    const ssize_t n = ::recv(socket.fd(), chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;  // peer closed or timed out mid-request
    }
    head.append(chunk, static_cast<std::size_t>(n));
  }

  // Request line: METHOD SP PATH SP VERSION.
  const std::size_t line_end = head.find("\r\n");
  const std::string line = head.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = line.rfind(' ');
  if (sp1 == std::string::npos || sp2 == sp1) {
    send_response(socket, HttpResponse{400, "text/plain; charset=utf-8",
                                       "malformed request line\n"});
    return;
  }
  const std::string method = line.substr(0, sp1);
  std::string path = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::size_t query = path.find('?');
  if (query != std::string::npos) path.resize(query);

  requests_.fetch_add(1, std::memory_order_relaxed);
  if (method != "GET") {
    send_response(socket, HttpResponse{405, "text/plain; charset=utf-8",
                                       "only GET is supported\n"});
    return;
  }
  const auto it = handlers_.find(path);
  if (it == handlers_.end()) {
    send_response(socket, HttpResponse{404, "text/plain; charset=utf-8",
                                       "no handler for " + path + "\n"});
    return;
  }
  HttpResponse response;
  try {
    response = it->second();
  } catch (const std::exception& e) {
    response = HttpResponse{500, "text/plain; charset=utf-8",
                            std::string("handler failed: ") + e.what() + "\n"};
  }
  send_response(socket, response);
}

}  // namespace lorasched::net
