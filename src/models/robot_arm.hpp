// The paper's robotic-arm application (Sec. VII-A): an industrial arm with
// J independently controlled joints (theta_0 is the base rotation about the
// vertical axis, theta_1..theta_{J-1} pitch joints in the arm plane) and a
// camera at the end effector tracking an object moving on the fixed x-y
// ground plane.
//
// State   x = (theta_0..theta_{J-1}, ox, oy, vx, vy)      dim = J + 4
// Control u = (u_0..u_{J-1})                              joint rates
// Meas.   z = (theta^_0..theta^_{J-1}, xC, yC)            dim = J + 2
//
// Dynamics (paper's single/double integrators):
//   theta_i' = theta_i + h_s u_i + w_theta
//   ox'      = ox + vx h_s + w_x        vx' = vx + w_vx   (same for y)
// Measurements: per-joint angle sensors plus the camera observation
// (xC, yC) = the object position expressed in the moving camera frame via
// the rotation-translation chain h(x) - the highly nonlinear part.
//
// The Table II noise magnitudes are garbled in the available paper text
// ("N(0, 0.)"); the defaults below are chosen so that the default filter
// configuration converges while small configurations visibly fail, which
// reproduces the paper's qualitative behaviour (Figs 6-9).
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace esthera::models {

template <typename T>
struct RobotArmParams {
  std::size_t n_joints = 5;   ///< includes the base joint; state dim = n_joints + 4
  T arm_length = T(2);        ///< total arm length [m], split over the segments
  T base_height = T(0.5);     ///< camera height when the arm lies flat [m]
  // Defaults calibrated (see EXPERIMENTS.md) so that the paper's
  // qualitative results reproduce: good configurations converge, tiny ones
  // fail, All-to-All loses diversity, and the Ring/Torus accuracy crossover
  // appears as the network grows.
  T dt = T(0.05);             ///< sampling time h_s [s]
  T sigma_theta = T(0.01);    ///< process noise on each joint angle [rad]
  T sigma_pos = T(0.02);      ///< process noise on object position [m]
  T sigma_vel = T(0.025);     ///< process noise on object velocity [m/s]
  T meas_sigma_theta = T(0.03);  ///< joint angle sensor noise [rad]
  T meas_sigma_cam = T(0.05);    ///< camera observation noise [m]
  T init_sigma_theta = T(0.1);   ///< initial angle uncertainty [rad]
  T init_sigma_pos = T(0.5);     ///< initial object position uncertainty [m]
  T init_sigma_vel = T(0.2);     ///< initial object velocity uncertainty [m/s]
};

/// 3-vector helper used by the kinematic chain.
template <typename T>
struct Vec3 {
  T x{}, y{}, z{};
};

/// Camera pose: position plus the two image-plane axes (orthographic
/// camera). `right` spans the horizontal image axis, `up` the vertical one.
template <typename T>
struct CameraPose {
  Vec3<T> position;
  Vec3<T> right;
  Vec3<T> up;
};

template <typename T>
class RobotArmModel {
 public:
  using Scalar = T;

  explicit RobotArmModel(RobotArmParams<T> params = {},
                         std::vector<T> init_mean = {})
      : p_(params), init_mean_(std::move(init_mean)) {
    assert(p_.n_joints >= 1);
    if (init_mean_.empty()) init_mean_.assign(state_dim(), T(0));
    assert(init_mean_.size() == state_dim());
  }

  [[nodiscard]] const RobotArmParams<T>& params() const { return p_; }
  [[nodiscard]] std::size_t n_joints() const { return p_.n_joints; }
  [[nodiscard]] std::size_t state_dim() const { return p_.n_joints + 4; }
  [[nodiscard]] std::size_t measurement_dim() const { return p_.n_joints + 2; }
  [[nodiscard]] std::size_t control_dim() const { return p_.n_joints; }
  [[nodiscard]] std::size_t noise_dim() const { return state_dim(); }
  [[nodiscard]] std::size_t init_noise_dim() const { return state_dim(); }
  [[nodiscard]] std::size_t measurement_noise_dim() const { return measurement_dim(); }

  /// Mean initial state around which particles are spawned.
  [[nodiscard]] std::span<const T> init_mean() const { return init_mean_; }
  void set_init_mean(std::vector<T> mean) {
    assert(mean.size() == state_dim());
    init_mean_ = std::move(mean);
  }

  void sample_initial(std::span<T> x, std::span<const T> normals) const {
    assert(x.size() == state_dim() && normals.size() >= init_noise_dim());
    // Bounding by the span size (always n_joints + 4) lets the optimizer
    // prove the loop finite, silencing a spurious -Waggressive-loop warning.
    const std::size_t j = std::min(p_.n_joints, x.size() - 4);
    const T* mean = init_mean_.data();
    for (std::size_t i = 0; i < j; ++i) {
      x[i] = mean[i] + p_.init_sigma_theta * normals[i];
    }
    x[j + 0] = mean[j + 0] + p_.init_sigma_pos * normals[j + 0];
    x[j + 1] = mean[j + 1] + p_.init_sigma_pos * normals[j + 1];
    x[j + 2] = mean[j + 2] + p_.init_sigma_vel * normals[j + 2];
    x[j + 3] = mean[j + 3] + p_.init_sigma_vel * normals[j + 3];
  }

  void sample_transition(std::span<const T> x_prev, std::span<T> x,
                         std::span<const T> u, std::span<const T> normals,
                         std::size_t /*step*/) const {
    assert(x_prev.size() == state_dim() && x.size() == state_dim());
    assert(normals.size() >= noise_dim());
    const std::size_t j = p_.n_joints;
    const T h = p_.dt;
    for (std::size_t i = 0; i < j; ++i) {
      const T ui = i < u.size() ? u[i] : T(0);
      x[i] = x_prev[i] + h * ui + p_.sigma_theta * normals[i];
    }
    x[j + 0] = x_prev[j + 0] + x_prev[j + 2] * h + p_.sigma_pos * normals[j + 0];
    x[j + 1] = x_prev[j + 1] + x_prev[j + 3] * h + p_.sigma_pos * normals[j + 1];
    x[j + 2] = x_prev[j + 2] + p_.sigma_vel * normals[j + 2];
    x[j + 3] = x_prev[j + 3] + p_.sigma_vel * normals[j + 3];
  }

  /// Forward kinematics: camera pose from the joint angles.
  [[nodiscard]] CameraPose<T> camera_pose(std::span<const T> angles) const {
    assert(angles.size() >= p_.n_joints);
    const T yaw = angles[0];
    const T cy = std::cos(yaw);
    const T sy = std::sin(yaw);
    const std::size_t segments = p_.n_joints > 1 ? p_.n_joints - 1 : 0;
    const T seg_len = segments > 0 ? p_.arm_length / static_cast<T>(segments)
                                   : p_.arm_length;
    Vec3<T> pos{T(0), T(0), p_.base_height};
    T pitch = T(0);
    // cos/sin of the running pitch; with no segments the pitch stays 0.
    T cp = T(1);
    T sp = T(0);
    for (std::size_t s = 0; s < segments; ++s) {
      pitch += angles[s + 1];
      cp = std::cos(pitch);
      sp = std::sin(pitch);
      pos.x += seg_len * cp * cy;
      pos.y += seg_len * cp * sy;
      pos.z += seg_len * sp;
    }
    // Camera forward axis points along the last segment; right axis is the
    // horizontal perpendicular; up completes the frame (forward x right).
    CameraPose<T> cam;
    cam.position = pos;
    cam.right = {-sy, cy, T(0)};
    cam.up = {-sp * cy, -sp * sy, cp};
    return cam;
  }

  /// Noise-free measurement h(x): joint angles followed by the camera-frame
  /// object coordinates (xC, yC) - the rotation-translation chain.
  void measure(std::span<const T> x, std::span<T> z) const {
    assert(x.size() == state_dim() && z.size() == measurement_dim());
    const std::size_t j = std::min(p_.n_joints, z.size() - 2);
    for (std::size_t i = 0; i < j; ++i) z[i] = x[i];
    const CameraPose<T> cam = camera_pose(x.first(j));
    const Vec3<T> d{x[j + 0] - cam.position.x, x[j + 1] - cam.position.y,
                    T(0) - cam.position.z};
    z[j + 0] = d.x * cam.right.x + d.y * cam.right.y + d.z * cam.right.z;
    z[j + 1] = d.x * cam.up.x + d.y * cam.up.y + d.z * cam.up.z;
  }

  /// Draws a noisy measurement z ~ p(z | x) for the ground-truth simulator.
  void sample_measurement(std::span<const T> x, std::span<T> z,
                          std::span<const T> normals) const {
    assert(normals.size() >= measurement_noise_dim());
    measure(x, z);
    const std::size_t j = p_.n_joints;
    for (std::size_t i = 0; i < j; ++i) z[i] += p_.meas_sigma_theta * normals[i];
    z[j + 0] += p_.meas_sigma_cam * normals[j + 0];
    z[j + 1] += p_.meas_sigma_cam * normals[j + 1];
  }

  /// log p(z | x): independent Gaussians on every measurement channel
  /// (additive constants dropped; they cancel in the weight normalization).
  [[nodiscard]] T log_likelihood(std::span<const T> x, std::span<const T> z) const {
    assert(z.size() == measurement_dim());
    const std::size_t j = p_.n_joints;
    // Stack buffer covers the default model; fall back for huge dim sweeps.
    T zbuf_small[64];
    std::vector<T> zbuf_large;
    std::span<T> zh;
    if (measurement_dim() <= 64) {
      zh = {zbuf_small, measurement_dim()};
    } else {
      zbuf_large.resize(measurement_dim());
      zh = zbuf_large;
    }
    measure(x, zh);
    T ll = T(0);
    const T inv_var_theta = T(1) / (p_.meas_sigma_theta * p_.meas_sigma_theta);
    for (std::size_t i = 0; i < j; ++i) {
      const T e = z[i] - zh[i];
      ll -= T(0.5) * e * e * inv_var_theta;
    }
    const T inv_var_cam = T(1) / (p_.meas_sigma_cam * p_.meas_sigma_cam);
    for (std::size_t i = j; i < j + 2; ++i) {
      const T e = z[i] - zh[i];
      ll -= T(0.5) * e * e * inv_var_cam;
    }
    return ll;
  }

  /// Object position (x, y) extracted from a state vector.
  [[nodiscard]] std::pair<T, T> object_position(std::span<const T> x) const {
    const std::size_t j = p_.n_joints;
    return {x[j + 0], x[j + 1]};
  }

 private:
  RobotArmParams<T> p_;
  std::vector<T> init_mean_;
};

}  // namespace esthera::models
