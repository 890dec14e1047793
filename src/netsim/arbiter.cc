#include "arbiter.hh"

#include "util/diag.hh"

namespace cryo::netsim
{

MatrixArbiter::MatrixArbiter(int requesters)
    : n_(requesters),
      w_(static_cast<std::size_t>(requesters) * requesters, false)
{
    fatalIf(requesters < 1, "arbiter needs at least one requester");
    // Initial priority: lower index beats higher index.
    for (int i = 0; i < n_; ++i) {
        for (int j = i + 1; j < n_; ++j)
            w_[static_cast<std::size_t>(i) * n_ + j] = true;
    }
}

bool
MatrixArbiter::beats(int a, int b) const
{
    return w_[static_cast<std::size_t>(a) * n_ + b];
}

int
MatrixArbiter::arbitrate(const std::vector<bool> &requests)
{
    fatalIf(static_cast<int>(requests.size()) != n_,
            "request vector size mismatch");
    int winner = -1;
    for (int i = 0; i < n_; ++i) {
        if (!requests[i])
            continue;
        bool wins = true;
        for (int j = 0; j < n_; ++j) {
            if (j != i && requests[j] && !beats(i, j)) {
                wins = false;
                break;
            }
        }
        if (wins) {
            winner = i;
            break;
        }
    }
    if (winner >= 0) {
        // Winner becomes lowest priority: clear its row, set its column.
        for (int j = 0; j < n_; ++j) {
            w_[static_cast<std::size_t>(winner) * n_ + j] = false;
            if (j != winner)
                w_[static_cast<std::size_t>(j) * n_ + winner] = true;
        }
    }
    return winner;
}

RoundRobinArbiter::RoundRobinArbiter(int requesters) : n_(requesters)
{
    fatalIf(requesters < 1, "arbiter needs at least one requester");
}

int
RoundRobinArbiter::arbitrate(const std::vector<bool> &requests)
{
    fatalIf(static_cast<int>(requests.size()) != n_,
            "request vector size mismatch");
    for (int k = 0; k < n_; ++k) {
        const int i = (next_ + k) % n_;
        if (requests[i]) {
            next_ = (i + 1) % n_;
            return i;
        }
    }
    return -1;
}

} // namespace cryo::netsim
