#include "models/tvae.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "nn/losses.hpp"
#include "util/logging.hpp"
#include "util/serialize.hpp"

namespace surro::models {

Tvae::Tvae(TvaeConfig cfg) : cfg_(cfg), rng_(cfg.seed) {}

void Tvae::fit(const tabular::Table& train, const FitOptions& opts) {
  if (fitted_) throw std::logic_error("tvae: fit called twice");
  encoder_map_.fit(train, cfg_.num_quantiles);
  const std::size_t width = encoder_map_.encoded_width();
  const std::size_t latent = cfg_.latent_dim;

  encoder_ = nn::make_mlp(width, cfg_.hidden, 2 * latent,
                          nn::Activation::kReLU, rng_);
  decoder_ = nn::make_mlp(latent, cfg_.hidden, width,
                          nn::Activation::kReLU, rng_);

  const linalg::Matrix data = encoder_map_.encode(train);
  const std::size_t n = data.rows();
  const std::size_t batch =
      std::min<std::size_t>(cfg_.budget.batch_size, n);
  const std::size_t steps_per_epoch = (n + batch - 1) / batch;

  opt_ = std::make_unique<nn::Adam>(cfg_.budget.learning_rate);
  opt_->add_params(encoder_.params());
  opt_->add_params(decoder_.params());
  opt_steps_ = 0;
  const nn::CosineSchedule schedule(cfg_.budget.learning_rate,
                                    cfg_.budget.epochs * steps_per_epoch);
  train_epochs(data, cfg_.budget.epochs, schedule, opts);
  fitted_ = true;
}

void Tvae::warm_fit(const tabular::Table& delta, const RefreshOptions& opts) {
  if (!fitted_) throw std::logic_error("tvae: warm_fit before fit");
  if (!warm_startable()) {
    throw std::logic_error("tvae: training state not retained");
  }
  if (delta.num_rows() == 0) return;
  const linalg::Matrix data = encoder_map_.encode(delta);
  const nn::ConstantSchedule schedule(cfg_.budget.learning_rate *
                                      opts.learning_rate_scale);
  train_epochs(data, opts.resolve_epochs(cfg_.budget.epochs), schedule,
               opts.fit);
}

void Tvae::train_epochs(const linalg::Matrix& data, std::size_t epochs,
                        const nn::LrSchedule& schedule,
                        const FitOptions& opts) {
  const std::size_t latent = cfg_.latent_dim;
  const std::size_t n = data.rows();
  const std::size_t batch =
      std::min<std::size_t>(cfg_.budget.batch_size, n);

  linalg::Matrix xb;
  linalg::Matrix mu(batch, latent);
  linalg::Matrix logvar(batch, latent);
  linalg::Matrix eps(batch, latent);
  linalg::Matrix z(batch, latent);
  linalg::Matrix grad_recon;
  linalg::Matrix grad_mu_kl;
  linalg::Matrix grad_lv_kl;
  linalg::Matrix grad_h;

  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    if (opts.cancelled()) throw FitCancelled(name());
    const auto perm = rng_.permutation(n);
    double epoch_loss = 0.0;
    std::size_t epoch_batches = 0;
    for (std::size_t off = 0; off < n; off += batch) {
      const std::size_t cur = std::min(batch, n - off);
      const std::span<const std::size_t> idx(perm.data() + off, cur);
      linalg::gather_rows(data, idx, xb);

      // Encoder forward: H = [mu | logvar].
      const linalg::Matrix& h = encoder_.forward(xb, /*train=*/true);
      mu.resize(cur, latent);
      logvar.resize(cur, latent);
      for (std::size_t r = 0; r < cur; ++r) {
        for (std::size_t j = 0; j < latent; ++j) {
          mu(r, j) = h(r, j);
          logvar(r, j) =
              std::clamp(h(r, latent + j), -8.0f, 8.0f);
        }
      }

      // Reparameterize.
      eps.resize(cur, latent);
      z.resize(cur, latent);
      for (std::size_t i = 0; i < eps.size(); ++i) {
        eps.flat()[i] = static_cast<float>(rng_.normal());
      }
      for (std::size_t r = 0; r < cur; ++r) {
        for (std::size_t j = 0; j < latent; ++j) {
          z(r, j) = mu(r, j) +
                    eps(r, j) * std::exp(0.5f * logvar(r, j));
        }
      }

      // Decode and compute losses.
      const linalg::Matrix& y = decoder_.forward(z, /*train=*/true);
      const float recon = nn::mixed_reconstruction_loss(
          y, xb, encoder_map_.blocks(), encoder_map_.num_numerical(),
          grad_recon);
      const float kl =
          nn::gaussian_kl(mu, logvar, grad_mu_kl, grad_lv_kl);

      // Backprop: decoder -> z -> (mu, logvar) -> encoder.
      const linalg::Matrix& grad_z = decoder_.backward(grad_recon);
      grad_h.resize(cur, 2 * latent);
      for (std::size_t r = 0; r < cur; ++r) {
        for (std::size_t j = 0; j < latent; ++j) {
          const float gz = grad_z(r, j);
          const float sigma = std::exp(0.5f * logvar(r, j));
          grad_h(r, j) = gz + cfg_.kl_weight * grad_mu_kl(r, j);
          grad_h(r, latent + j) =
              gz * eps(r, j) * 0.5f * sigma +
              cfg_.kl_weight * grad_lv_kl(r, j);
        }
      }
      encoder_.backward(grad_h);

      opt_->clip_grad_norm(cfg_.grad_clip);
      opt_->set_learning_rate(schedule.at(opt_steps_++));
      opt_->step();

      epoch_loss += recon + cfg_.kl_weight * kl;
      ++epoch_batches;
    }
    last_epoch_loss_ =
        static_cast<float>(epoch_loss / static_cast<double>(epoch_batches));
    if (cfg_.budget.log_every_epochs > 0 &&
        (epoch + 1) % cfg_.budget.log_every_epochs == 0) {
      util::log_info("tvae: epoch %zu/%zu loss %.4f", epoch + 1, epochs,
                     static_cast<double>(last_epoch_loss_));
    }
    if (opts.on_progress) {
      opts.on_progress({epoch + 1, epochs, last_epoch_loss_});
    }
  }
}

tabular::Table Tvae::sample_chunk(std::size_t n, std::uint64_t seed) {
  if (!fitted_) throw std::logic_error("tvae: sample before fit");
  util::Rng rng(seed);
  const std::size_t latent = cfg_.latent_dim;
  const std::size_t chunk = 2048;

  tabular::Table out = encoder_map_.make_empty_table();
  linalg::Matrix z;
  linalg::Matrix y;
  for (std::size_t off = 0; off < n; off += chunk) {
    const std::size_t cur = std::min(chunk, n - off);
    z.resize(cur, latent);
    for (float& v : z.flat()) v = static_cast<float>(rng.normal());
    decoder_.infer(z, y);
    // Turn categorical logits into probabilities; decode() then samples.
    for (const auto& b : encoder_map_.blocks()) {
      linalg::softmax_rows(y, b.offset, b.offset + b.cardinality);
    }
    out.append_table(encoder_map_.decode(y, &rng));
  }
  return out;
}

void Tvae::save(std::ostream& os) const { save_impl(os, true); }

void Tvae::save_impl(std::ostream& os, bool include_train_state) const {
  if (!fitted_) throw std::logic_error("tvae: save before fit");
  util::io::write_tag(os, "TVAE");
  util::io::write_u32(os, 2);  // payload version
  util::io::write_u64(os, cfg_.latent_dim);
  encoder_map_.save(os);
  nn::save_mlp(os, decoder_);
  // v2: optional training state so a reloaded model can warm_fit — the
  // encoder net, the optimizer moments + step clock, and the training RNG.
  const bool train_state = include_train_state && opt_ != nullptr;
  util::io::write_u32(os, train_state ? 1 : 0);
  if (train_state) {
    // Fit-time budget: warm_fit derives its epoch count and LR from it.
    util::io::write_f32(os, cfg_.budget.learning_rate);
    util::io::write_u64(os, cfg_.budget.epochs);
    util::io::write_u64(os, cfg_.budget.batch_size);
    nn::save_mlp(os, encoder_);
    opt_->save(os);
    util::io::write_u64(os, opt_steps_);
    rng_.save(os);
  }
}

void Tvae::load(std::istream& is) {
  if (fitted_) throw std::logic_error("tvae: load into fitted model");
  util::io::expect_tag(is, "TVAE");
  const std::uint32_t version = util::io::read_u32(is);
  if (version != 1 && version != 2) {
    throw std::runtime_error("tvae: unsupported payload");
  }
  cfg_.latent_dim = static_cast<std::size_t>(util::io::read_u64(is));
  encoder_map_.load(is);
  decoder_ = nn::load_mlp(is);
  if (version >= 2 && util::io::read_u32(is) != 0) {
    cfg_.budget.learning_rate = util::io::read_f32(is);
    cfg_.budget.epochs = static_cast<std::size_t>(util::io::read_u64(is));
    cfg_.budget.batch_size = static_cast<std::size_t>(util::io::read_u64(is));
    encoder_ = nn::load_mlp(is);
    opt_ = std::make_unique<nn::Adam>(cfg_.budget.learning_rate);
    opt_->add_params(encoder_.params());  // fit-time registration order
    opt_->add_params(decoder_.params());
    opt_->load(is);
    opt_steps_ = static_cast<std::size_t>(util::io::read_u64(is));
    rng_.load(is);
  }
  fitted_ = true;
}

namespace {
const RegisterGenerator kRegisterTvae{{
    "tvae",
    "TVAE",
    "Variational autoencoder for mixed-type tables (Xu et al., 2019)",
    [](const TrainBudget& budget, std::uint64_t seed) {
      TvaeConfig cfg;
      cfg.budget = budget;
      cfg.seed = seed;
      return std::make_unique<Tvae>(cfg);
    },
}};
}  // namespace

std::unique_ptr<TabularGenerator> Tvae::clone() const {
  std::stringstream buffer;
  save_impl(buffer, /*include_train_state=*/false);
  auto copy = std::make_unique<Tvae>(cfg_);
  copy->load(buffer);
  return copy;
}

}  // namespace surro::models
